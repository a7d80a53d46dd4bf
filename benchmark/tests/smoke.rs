//! Smoke tests for the benchmark itself, at the tiny size of each workload
//! (seconds to half a minute per run): every metric that BENCHMARK.json
//! names is printed, deliberately corrupted outputs trip the output checks,
//! and the checks pass on a seed that was not used while the benchmark was
//! written.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::Mutex;

const WORKLOADS: [&str; 3] = ["paper_study", "continent_exact", "monitor_fleet"];

/// One benchmark run at a time, although the tests run in parallel: a
/// traced run holds its layer split to the live ingest's CPU time, which
/// another run on the same cores would disturb.
static ONE_RUN: Mutex<()> = Mutex::new(());

fn run(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Output {
    let _one = ONE_RUN.lock().unwrap_or_else(|e| e.into_inner());
    Command::new(env!("CARGO_BIN_EXE_ixp-e2e-bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

/// Metric names listed under `section` ("end_to_end" or "per_layer") in
/// BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn tiny_runs_print_every_named_metric() {
    for w in WORKLOADS {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let out = run(w, 3, trace, &[]);
            let line = last_line(&out);
            assert!(
                out.status.success(),
                "{w} trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stdout)
            );
            assert!(line.starts_with("{\"correct\":true,"), "{w}: {line}");
            let names = listed(section);
            assert!(!names.is_empty());
            for name in &names {
                assert!(
                    line.contains(&format!("\"{name}\":{{\"value\":")),
                    "{w} trace {trace} lacks {name}: {line}"
                );
            }
            assert_eq!(
                line.matches("\"value\":").count(),
                names.len(),
                "{w}: extra metrics in {line}"
            );
        }
    }
}

#[test]
fn corrupted_outputs_trip_the_checks() {
    for w in WORKLOADS {
        for corrupt in ["verdict", "sample"] {
            let out = run(w, 3, 0, &["--corrupt", corrupt]);
            assert!(
                !out.status.success(),
                "{w} --corrupt {corrupt} passed its checks"
            );
            assert!(
                last_line(&out).starts_with("{\"correct\":false,"),
                "{w} --corrupt {corrupt}"
            );
            assert!(String::from_utf8_lossy(&out.stdout).contains("check FAIL"));
        }
    }
}

#[test]
fn checks_pass_on_an_unseen_seed() {
    for w in WORKLOADS {
        let out = run(w, 0x005E_ED0F_F5E7, 1, &[]);
        assert!(
            out.status.success(),
            "{w}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_ixp-e2e-bench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
