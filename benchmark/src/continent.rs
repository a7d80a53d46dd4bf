//! `continent_exact`: full-rate probing and detection, nothing else.
//!
//! A `topology::continent` substrate of ~2,000 member links (5% congested),
//! probed paper-exact (5-minute rounds, no screening) for 14 days through
//! `core::campaign::stream_vp_links`, with `health::classify_link` and
//! `detect::assess_at_thresholds_masked_with` on each link. bdrmap, the
//! screening pass and the VP scheduler do no work here.

use crate::trace;
use crate::util::{self, distinct, Fnv};
use crate::{Args, Corrupt, RunResult, Size};
use ixp_chgpt::DetectorScratch;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::{ProbeCtx, SimTime};
use ixp_simnet::time::SimDuration;
use ixp_study::THRESHOLDS_MS;
use ixp_topology::{build_continent, Continent, ContinentSpec};
use std::time::Instant;
use tslp_core::campaign::{
    link_key, measure_link_in, pool_try_map_rec, resolve_threads, stream_vp_links, CampaignConfig,
};
use tslp_core::detect::{assess_at_thresholds_masked_with, AssessConfig};
use tslp_core::health::classify_link;
use tslp_core::series::LinkSeries;

/// One link's verdict at each swept threshold (5/10/15/20 ms): flagged
/// (level shifts at least that large) and congested (flagged, diurnal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Verdict {
    flagged: [bool; 4],
    congested: [bool; 4],
    samples: u32,
}

/// Days of paper-exact probing per call.
const DAYS: u64 = 14;

fn spec(size: Size) -> ContinentSpec {
    let links = if size == Size::Full { 2_000 } else { 120 };
    ContinentSpec {
        congested_fraction: 0.05,
        ..ContinentSpec::with_total_links(links)
    }
}

fn setup(args: &Args) -> (Continent, Vec<TslpTarget>, CampaignConfig) {
    let cont = build_continent(&spec(args.size), util::hash2(args.seed, 0xC047));
    let targets = cont
        .links
        .iter()
        .map(|l| TslpTarget {
            dst: l.dst,
            near_ttl: l.near_ttl,
            far_ttl: l.far_ttl,
            near_addr: l.near,
            far_addr: l.far,
        })
        .collect();
    let start = SimTime::from_date(2016, 3, 7);
    let cfg = CampaignConfig::exact(start, start + SimDuration::from_days(DAYS));
    (cont, targets, cfg)
}

fn assess(series: &LinkSeries, assess: &AssessConfig, scratch: &mut DetectorScratch) -> Verdict {
    let mask = classify_link(series, &assess.health);
    verdict(series, assess, &mask, scratch)
}

fn verdict(
    series: &LinkSeries,
    assess: &AssessConfig,
    mask: &tslp_core::health::HealthReport,
    scratch: &mut DetectorScratch,
) -> Verdict {
    let sweep = assess_at_thresholds_masked_with(series, assess, &THRESHOLDS_MS, mask, scratch);
    let mut flagged = [false; 4];
    let mut congested = [false; 4];
    for (i, (_, a)) in sweep.iter().enumerate() {
        flagged[i] = a.flagged;
        congested[i] = a.congested;
    }
    Verdict {
        flagged,
        congested,
        samples: series.len() as u32,
    }
}

fn digest(v: &[Verdict]) -> u64 {
    let mut h = Fnv::default();
    for x in v {
        let bits = |b: &[bool; 4]| {
            b.iter()
                .enumerate()
                .map(|(i, &f)| (f as u64) << i)
                .sum::<u64>()
        };
        h.u64(bits(&x.flagged) | bits(&x.congested) << 8);
        h.u64(x.samples as u64);
    }
    h.0
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let (setup_s, (cont, targets, cfg)) = util::timed_median(4, 15, 1, || setup(args));
    let acfg = AssessConfig::default();
    r.set("setup_s", setup_s);
    r.regime("links", targets.len().to_string());
    r.regime(
        "congested_fraction",
        util::json_num(spec(args.size).congested_fraction),
    );
    r.regime("window_days", DAYS.to_string());
    r.regime(
        "probing",
        util::json_str("paper-exact: 5-minute rounds, no screening"),
    );
    r.regime(
        "threads",
        format!("{{\"campaign_pool\":{}}}", resolve_threads(cfg.threads)),
    );
    r.regime(
        "caches",
        util::json_str("warm: the substrate is built in set-up and reused by every call"),
    );

    let call = || {
        let t = Instant::now();
        let out = stream_vp_links(
            &cont.net,
            cont.vp,
            &targets,
            &cfg,
            None,
            DetectorScratch::new,
            |scratch, _, _, series, _| assess(&series, &acfg, scratch),
        );
        (util::secs(t), out)
    };
    let t0 = Instant::now();
    let cpu0 = util::cpu_s();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut failed = 0u64;
    let mut last = Vec::new();
    // Whole calls while the next one should still end inside the run.
    while walls.is_empty() || util::secs(t0) + util::median(&walls) <= args.seconds {
        let (wall, out) = call();
        walls.push(wall);
        failed += out.iter().filter(|o| o.is_err()).count() as u64;
        last = out
            .into_iter()
            .map(|o| o.ok())
            .collect::<Vec<Option<Verdict>>>();
        digests.push(digest(&last.iter().flatten().copied().collect::<Vec<_>>()));
    }
    r.set("wall_s", util::median(&walls));
    r.set("cpu_s", (util::cpu_s() - cpu0) / walls.len() as f64);
    r.set("peak_rss_mb", util::peak_rss_mb());
    r.regime("calls", walls.len().to_string());
    r.regime("call_walls_s", util::json_list(&walls));
    r.attempted = (targets.len() * walls.len()) as u64;
    r.failed = failed;
    r.set("failed_frac", failed as f64 / r.attempted as f64);

    match args.corrupt {
        Corrupt::None => {}
        Corrupt::Verdict => {
            // Call one idle link congested.
            if let Some(i) = cont.links.iter().position(|l| !l.congested) {
                if let Some(v) = last[i].as_mut() {
                    v.congested = [true; 4];
                }
            }
        }
        Corrupt::Sample => {
            // Swallow one congested link's result.
            if let Some(i) = cont.links.iter().position(|l| l.congested) {
                last[i] = None;
            }
        }
    }

    // Output checks against the generator's ground truth. The generator
    // draws each congested port's queue between 8 and 20 ms, so every one
    // must read congested at the lowest threshold swept (5 ms); recall at
    // the 10 ms operating point is reported, not checked.
    let called = |v: &Option<Verdict>, i: usize| v.is_some_and(|v| v.congested[i]);
    let truth = cont.links.iter().filter(|l| l.congested).count();
    let fp = cont
        .links
        .iter()
        .zip(&last)
        .filter(|(l, v)| !l.congested && v.is_some_and(|v| v.congested.contains(&true)))
        .count();
    let recall = |i: usize| {
        cont.links
            .iter()
            .zip(&last)
            .filter(|(l, v)| l.congested && called(v, i))
            .count() as f64
            / truth.max(1) as f64
    };
    r.set("recall_5ms", recall(0));
    r.set("recall_10ms", recall(1));
    r.check(
        "no_false_positives",
        fp == 0,
        format!("{fp} idle links called congested at some threshold"),
    );
    r.check(
        "full_recall_at_5ms",
        truth > 0 && recall(0) == 1.0,
        format!(
            "recall {:.4} of {truth} congested links at 5 ms ({:.4} at 10 ms)",
            recall(0),
            recall(1)
        ),
    );
    r.check(
        "every_link_has_a_verdict",
        last.iter().all(|v| v.is_some()),
        format!("{} links", last.len()),
    );
    r.check(
        "deterministic",
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "{} calls, {} distinct digests",
            digests.len(),
            distinct(&digests)
        ),
    );
    let d = digests[0];
    r.regime("digest", util::json_str(&format!("{d:016x}")));

    if args.traced {
        traced_run(
            args,
            &cont,
            &targets,
            &cfg,
            &acfg,
            d,
            util::median(&walls),
            &mut r,
        );
    }
    r
}

/// The same links through the same pool `stream_vp_links` runs on, with the
/// probe walk and each detection layer under its own span.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    cont: &Continent,
    targets: &[TslpTarget],
    cfg: &CampaignConfig,
    acfg: &AssessConfig,
    untraced_digest: u64,
    untraced_wall: f64,
    r: &mut RunResult,
) {
    trace::take();
    let busy = trace::PoolBusy::default();
    let t = Instant::now();
    let out = trace::span("campaign", || {
        let parent = trace::current();
        pool_try_map_rec(
            cfg.threads,
            targets,
            || (DetectorScratch::new(), ProbeCtx::default()),
            |(scratch, ctx), _, tgt| {
                trace::under(parent, || {
                    trace::span("campaign.link", || {
                        let m0 = trace::now_ns();
                        let (series, screened) = measure_link_in(&cont.net, ctx, cont.vp, tgt, cfg);
                        trace::record(
                            if screened {
                                "campaign.screen"
                            } else {
                                "campaign.full"
                            },
                            m0,
                            trace::now_ns(),
                        );
                        let mask = trace::span("health", || classify_link(&series, &acfg.health));
                        trace::span("detect", || verdict(&series, acfg, &mask, scratch))
                    })
                })
            },
            &busy,
            "campaign",
            |_, t| link_key(t).label(),
        )
    });
    let traced_wall = util::secs(t);
    let verdicts: Vec<Verdict> = out.into_iter().flatten().collect();
    let d = digest(&verdicts);
    r.check(
        "traced_digest_matches_untraced",
        d == untraced_digest,
        format!("traced {d:016x}, untraced {untraced_digest:016x}"),
    );
    let profile = trace::finish(&args.spans_path());
    let worker_busy = busy.seconds();
    let threads = resolve_threads(cfg.threads).min(targets.len().max(1)) as f64;
    let campaign_s = profile.total_s("campaign");
    let samples: f64 = verdicts.iter().map(|v| v.samples as f64).sum();
    let flagged = verdicts
        .iter()
        .filter(|v| v.flagged.iter().any(|&f| f))
        .count() as f64;
    r.set("campaign.full.busy_s", profile.self_s("campaign.full"));
    r.set("campaign.full.links", profile.count("campaign.full"));
    r.set("campaign.full.rounds", samples);
    r.set(
        "campaign.full.useful_frac",
        flagged / profile.count("campaign.full").max(1.0),
    );
    r.set("campaign.screen.busy_s", profile.self_s("campaign.screen"));
    r.set("campaign.screen.links", profile.count("campaign.screen"));
    r.set("campaign.worker.busy_s", worker_busy);
    r.set(
        "campaign.pool.idle_s",
        (threads * campaign_s - worker_busy).max(0.0),
    );
    r.set(
        "campaign.failed_frac",
        (targets.len() - verdicts.len()) as f64 / targets.len().max(1) as f64,
    );
    r.set("health.busy_s", profile.self_s("health"));
    r.set("detect.busy_s", profile.self_s("detect"));
    r.set("detect.samples", samples);
    r.set("detect.flagged", flagged);
    let named: f64 = ["campaign.screen", "campaign.full", "health", "detect"]
        .iter()
        .map(|n| profile.self_s(n))
        .sum();
    r.partition(
        "layers_partition_worker_busy",
        named,
        worker_busy,
        "worker busy",
    );
    r.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    r.set("traced_wall_s", traced_wall);
}
