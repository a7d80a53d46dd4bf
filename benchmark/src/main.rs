//! One benchmark for the batch study and the resident monitor.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_study|continent_exact|monitor_fleet \
//!     --seed N --seconds S --trace 0|1 [--size full|tiny] [--corrupt verdict|sample]
//! ```
//!
//! Untraced (`--trace 0`) the last stdout line carries the end-to-end
//! metrics; traced (`--trace 1`) it carries the per-layer metrics, read from
//! spans recorded around the benchmark's own calls into each layer. Both
//! modes check the workload's outputs and exit non-zero when a check fails.
//! See README.md in this directory for what each workload and metric is for.

mod continent;
mod fleet;
mod study;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer that
/// a workload never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("bdrmap.busy_s", "s"),
    ("bdrmap.links", "count"),
    ("campaign.screen.busy_s", "s"),
    ("campaign.screen.links", "count"),
    ("campaign.screen.rounds", "count"),
    ("campaign.full.busy_s", "s"),
    ("campaign.full.links", "count"),
    ("campaign.full.rounds", "count"),
    ("campaign.full.useful_frac", "ratio"),
    ("campaign.worker.busy_s", "s"),
    ("campaign.pool.idle_s", "s"),
    ("campaign.failed_frac", "ratio"),
    ("health.busy_s", "s"),
    ("detect.busy_s", "s"),
    ("detect.samples", "count"),
    ("detect.flagged", "count"),
    ("rr.busy_s", "s"),
    ("rr.checks", "count"),
    ("loss.busy_s", "s"),
    ("loss.campaigns", "count"),
    ("study.outcome.busy_s", "s"),
    ("study.report_s", "s"),
    ("study.vp.VP1.wall_s", "s"),
    ("study.vp.VP2.wall_s", "s"),
    ("study.vp.VP3.wall_s", "s"),
    ("study.vp.VP4.wall_s", "s"),
    ("study.vp.VP5.wall_s", "s"),
    ("study.vp.VP6.wall_s", "s"),
    ("study.vp_skew", "ratio"),
    ("monitor.round_p50_ms", "ms"),
    ("monitor.round_p99_ms", "ms"),
    ("monitor.deadline_miss_frac", "ratio"),
    ("monitor.ingest_samples_per_s", "1/s"),
    ("monitor.reads_per_s", "1/s"),
    ("monitor.failed_frac", "ratio"),
    ("monitor.ingest.busy_s", "s"),
    ("monitor.ingest.p99_ms", "ms"),
    ("monitor.partition.busy_s", "s"),
    ("monitor.admit.busy_s", "s"),
    ("monitor.admit.slow_frac", "ratio"),
    ("monitor.push.busy_s", "s"),
    ("monitor.push.samples", "count"),
    ("monitor.publish.busy_s", "s"),
    ("monitor.shed", "count"),
    ("monitor.dropped", "count"),
    ("monitor.duplicates", "count"),
    ("monitor.stale", "count"),
    ("monitor.reordered", "count"),
    ("index.read.busy_s", "s"),
    ("index.reads", "count"),
    ("gen.lag_max_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.partition_gap_frac", "ratio"),
];

/// Unit of a metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    let listed = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u);
    listed.unwrap_or(if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MiB"
    } else if name.ends_with("_frac") || name.starts_with("recall") {
        "ratio"
    } else {
        "count"
    })
}

/// Workload size: `full` is what the benchmark measures; `tiny` runs each
/// workload's whole code path in seconds, for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A deliberate output corruption, applied after the run and before the
/// checks, that the checks must catch (smoke-tested).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    None,
    /// Flip one verdict.
    Verdict,
    /// Swallow one sample / drop one result.
    Sample,
}

/// Everything one run passes to the workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    pub corrupt: Corrupt,
}

/// What a workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// (check name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Metrics by name (end-to-end, report-line and per-layer alike).
    pub metrics: BTreeMap<String, f64>,
    /// Regime entries: name → JSON value.
    pub regime: BTreeMap<String, String>,
}

impl RunResult {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }
    pub fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }
    pub fn regime(&mut self, name: &str, json: impl Into<String>) {
        self.regime.insert(name.to_string(), json.into());
    }
    /// The traced run's self-check: the named layers' self times must sum
    /// to within 5% of the span they partition.
    pub fn partition(&mut self, check: &str, named_s: f64, span_s: f64, span: &str) {
        let gap = 1.0 - named_s / span_s.max(1e-9);
        self.set("trace.partition_gap_frac", gap);
        self.check(
            check,
            gap.abs() <= 0.05,
            format!(
                "named layers {named_s:.3} s of {span_s:.3} s {span} ({:+.2}%)",
                -gap * 100.0
            ),
        );
    }
}

impl Args {
    /// Where a traced run writes its spans: `benchmark/out/`.
    pub fn spans_path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut size = Size::Full;
    let mut corrupt = Corrupt::None;
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--size" => {
                size = match val()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size must be full or tiny, got {v}")),
                }
            }
            "--corrupt" => {
                corrupt = match val()?.as_str() {
                    "none" => Corrupt::None,
                    "verdict" => Corrupt::Verdict,
                    "sample" => Corrupt::Sample,
                    v => {
                        return Err(format!(
                            "--corrupt must be none, verdict or sample, got {v}"
                        ))
                    }
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        size,
        corrupt,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut r = match args.workload.as_str() {
        "paper_study" => study::run(&args),
        "continent_exact" => continent::run(&args),
        "monitor_fleet" => fleet::run(&args),
        w => {
            eprintln!("error: unknown workload {w} (paper_study, continent_exact, monitor_fleet)");
            std::process::exit(2);
        }
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let (src, head) = util::source_fingerprint(&repo);
    r.regime("workload", util::json_str(&args.workload));
    r.regime("seed", args.seed.to_string());
    r.regime("seconds", util::json_num(args.seconds));
    r.regime("traced", args.traced.to_string());
    r.regime(
        "size",
        util::json_str(if args.size == Size::Full {
            "full"
        } else {
            "tiny"
        }),
    );
    r.regime(
        "host_cores",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    );
    r.regime("source_digest", util::json_str(&src));
    r.regime(
        "commit",
        head.map(|h| util::json_str(&h))
            .unwrap_or_else(|| "null".into()),
    );
    r.regime(
        "profile",
        util::json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );

    let regime: Vec<String> = r
        .regime
        .iter()
        .map(|(k, v)| format!("{}:{v}", util::json_str(k)))
        .collect();
    println!("regime {{{}}}", regime.join(","));
    let mut all_ok = true;
    for (name, ok, detail) in &r.checks {
        all_ok &= ok;
        println!(
            "check {} {name}: {detail}",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    // Every metric the run measured, by name and unit, untraced and traced
    // alike (the last line carries only the listed ones).
    let report: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                util::json_str(k),
                util::json_num(*v),
                util::json_str(unit_of(k))
            )
        })
        .collect();
    println!("report {{{}}}", report.join(","));

    let listed = if args.traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = r
                .metrics
                .get(*name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                util::json_str(name),
                util::json_num(v),
                util::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{all_ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
    if !all_ok {
        eprintln!("error: output check failed");
        std::process::exit(1);
    }
}
