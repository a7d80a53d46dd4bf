//! `paper_study`: the paper's pipeline as users run it.
//!
//! All six paper VPs through `ixp_study::run_all_vps` (build → three bdrmap
//! snapshots → screened TSLP campaign → health → 5/10/15/20 ms sweep →
//! RR/loss) and `StudyReport::build`, over a six-week sub-window of the
//! quick campaign window. The traced run repeats the same public calls that
//! `run_vp_study` makes, over the same worker pool, with a span around each.

use crate::trace::{self, Span};
use crate::util::{self, distinct, Fnv};
use crate::{Args, Corrupt, RunResult, Size};
use ixp_bdrmap::infer::{run_bdrmap, BdrmapConfig, InferredLink};
use ixp_bdrmap::ipasn::IpAsnMapper;
use ixp_bdrmap::validate::score;
use ixp_chgpt::DetectorScratch;
use ixp_geo::{link_in_country, GeoDb};
use ixp_prober::rr::record_route_symmetry;
use ixp_prober::tslp::TslpTarget;
use ixp_simnet::prelude::{Asn, Ipv4, ProbeCtx, SimTime};
use ixp_simnet::rng::mix;
use ixp_simnet::time::SimDuration;
use ixp_study::vpstudy::LossSummary;
use ixp_study::{
    confusion, run_all_vps, LinkOutcome, SnapshotCounts, StudyReport, Table1, VpStudy,
    VpStudyConfig, THRESHOLDS_MS,
};
use ixp_topology::{build_vp, paper_directory, paper_vps, TruthKind, VpSpec};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tslp_core::campaign::{link_key, pool_try_map_rec, resolve_threads, CampaignConfig};
use tslp_core::detect::assess_at_thresholds_masked_with;
use tslp_core::health::classify_link;
use tslp_core::lossanalysis::{measure_loss_series, split_by_events, LossCampaignConfig};

/// Golden digests recorded from untraced runs: `paper_study <size>
/// <digest>` lines. Every run of that size must reproduce its digest.
const GOLDEN: &str = include_str!("../golden.txt");

/// The six-week sub-window of the quick campaign window.
fn window(size: Size) -> (SimTime, SimTime) {
    let start = SimTime::from_date(2016, 2, 22);
    let days = if size == Size::Full { 42 } else { 7 };
    (start, start + SimDuration::from_days(days))
}

/// The study's inputs: the paper's six VP specs on the paper's substrate
/// seed, as users run the study, handed to `run_all_vps` in an order the
/// workload seed permutes. The result must not depend on that order, so
/// every seed is checked against the same golden digest.
fn inputs(args: &Args) -> (Vec<VpSpec>, VpStudyConfig) {
    let mut specs = paper_vps();
    if args.size == Size::Tiny {
        // Two small VPs (the first, and SIXP) keep every layer busy.
        specs = vec![specs[0].clone(), specs[3].clone()];
    }
    for i in (1..specs.len()).rev() {
        specs.swap(
            i,
            (util::hash2(args.seed, i as u64) % (i as u64 + 1)) as usize,
        );
    }
    let cfg = VpStudyConfig {
        window: Some(window(args.size)),
        ..Default::default()
    };
    (specs, cfg)
}

/// The Table 1 / Table 2 / verdict digest, in VP-name order. Health
/// classes and probe-round totals stay out of it: scheduling each link's
/// window from its discovering snapshot changes both on purpose without
/// changing a verdict.
pub fn digest(studies: &[VpStudy], report: &StudyReport) -> u64 {
    let mut h = Fnv::default();
    let mut t1: Vec<_> = report.table1.rows.iter().collect();
    t1.sort_by(|a, b| a.vp.cmp(&b.vp));
    let mut t2: Vec<_> = report.table2.rows.iter().collect();
    t2.sort_by(|a, b| a.vp.cmp(&b.vp));
    let mut studies: Vec<&VpStudy> = studies.iter().collect();
    studies.sort_by(|a, b| a.spec.name.cmp(b.spec.name));
    for row in t1 {
        h.str(&row.vp);
        for &(t, f, d) in &row.cells {
            h.u64(t.to_bits());
            h.u64(f as u64);
            h.u64(d as u64);
        }
    }
    for row in t2 {
        h.str(&row.vp);
        for s in &row.snapshots {
            h.str(&format!("{s:?}"));
        }
        h.u64(row.mean_neighbor_recall.to_bits());
    }
    for s in studies {
        h.str(s.spec.name);
        for o in &s.outcomes {
            h.u64(((o.near.0 as u64) << 32) | o.far.0 as u64);
            for &(t, f, d) in &o.sweep {
                h.u64(t.to_bits());
                h.u64(f as u64 | (d as u64) << 1);
            }
            h.u64(o.congested() as u64);
            h.str(&format!("{:?}", o.symmetry));
        }
    }
    h.0
}

fn golden(size: Size) -> Option<u64> {
    let size = if size == Size::Full { "full" } else { "tiny" };
    GOLDEN.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        if f.next() != Some("paper_study") || f.next()? != size {
            return None;
        }
        u64::from_str_radix(f.next()?, 16).ok()
    })
}

fn table1_key(t: &Table1) -> String {
    t.rows
        .iter()
        .map(|r| format!("{}:{:?}", r.vp, r.cells))
        .collect::<Vec<_>>()
        .join(";")
}

/// The timed call: the study and its report.
fn untraced(specs: &[VpSpec], cfg: &VpStudyConfig) -> (f64, Vec<VpStudy>, StudyReport) {
    let t = Instant::now();
    let studies = run_all_vps(specs, cfg);
    let report = StudyReport::build(&studies);
    (util::secs(t), studies, report)
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let (setup_s, (specs, cfg)) = util::timed_median(5, 21, 200, || inputs(args));
    let (start, end) = window(args.size);
    r.regime(
        "window",
        format!(
            "[{},{}]",
            util::json_str(&start.date().to_string()),
            util::json_str(&end.date().to_string())
        ),
    );
    r.regime(
        "vps",
        util::json_str(
            &specs
                .iter()
                .map(|s| s.name.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
    );
    r.regime("substrate_seed", cfg.seed.to_string());
    r.regime(
        "threads",
        format!(
            "{{\"vp\":{},\"campaign_pool_per_vp\":{}}}",
            specs.len(),
            resolve_threads(cfg.threads)
        ),
    );
    r.regime(
        "caches",
        util::json_str("cold: every call builds its substrates from scratch"),
    );
    r.set("setup_s", setup_s);

    let t0 = Instant::now();
    let cpu0 = util::cpu_s();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    // Whole calls while the next one should still end inside the run.
    while walls.is_empty() || util::secs(t0) + util::median(&walls) <= args.seconds {
        let (wall, studies, report) = untraced(&specs, &cfg);
        walls.push(wall);
        digests.push(digest(&studies, &report));
        last = Some((studies, report));
    }
    let cpu = (util::cpu_s() - cpu0) / walls.len() as f64;
    let (mut studies, report) = last.expect("one call ran");
    r.set("wall_s", util::median(&walls));
    r.set("cpu_s", cpu);
    r.regime("calls", walls.len().to_string());
    r.regime("call_walls_s", util::json_list(&walls));

    match args.corrupt {
        Corrupt::None => {}
        Corrupt::Verdict => {
            // Call a healthy link congested.
            if let Some(o) = studies
                .iter_mut()
                .flat_map(|s| s.outcomes.iter_mut())
                .find(|o| matches!(o.truth, Some(TruthKind::Healthy)))
            {
                o.assessment.congested = true;
                o.symmetry = None;
            }
        }
        Corrupt::Sample => {
            // Swallow one link's result.
            if let Some(s) = studies.iter_mut().find(|s| !s.outcomes.is_empty()) {
                s.outcomes.remove(0);
            }
        }
    }

    let links: usize = studies.iter().map(|s| s.outcomes.len()).sum();
    let quarantined: usize = studies
        .iter()
        .map(|s| s.integrity_summary().quarantined)
        .sum();
    r.attempted = links as u64;
    r.failed = quarantined as u64;
    r.set("peak_rss_mb", util::peak_rss_mb());
    r.set("failed_frac", quarantined as f64 / links.max(1) as f64);
    r.set("links_probed", links as f64);
    r.set(
        "probe_rounds",
        studies.iter().map(|s| s.probe_rounds as f64).sum(),
    );

    // Output checks.
    for s in &studies {
        let c = confusion(s);
        r.check(
            &format!("no_false_congestion.{}", s.spec.name),
            c.false_positives == 0,
            format!(
                "{} false positives, {} true positives",
                c.false_positives, c.true_positives
            ),
        );
    }
    r.check(
        "tables_match_verdicts",
        table1_key(&Table1::build(&studies)) == table1_key(&report.table1),
        "Table 1 rebuilt from the per-link verdicts equals the report's",
    );
    let d = digest(&studies, &report);
    r.check(
        "deterministic",
        digests.iter().all(|&x| x == digests[0]),
        format!(
            "{} calls, {} distinct digests",
            digests.len(),
            distinct(&digests)
        ),
    );
    let golden = golden(args.size);
    r.check(
        "digest_matches_golden",
        golden == Some(d),
        format!(
            "digest {d:016x}, golden {}",
            golden.map_or("none".into(), |g| format!("{g:016x}"))
        ),
    );
    r.regime("digest", util::json_str(&format!("{d:016x}")));

    if args.traced {
        traced_run(args, &specs, &cfg, d, util::median(&walls), &mut r);
    }
    r
}

/// Per-VP facts the spans do not carry.
#[derive(Default)]
struct VpTally {
    worker_busy_s: f64,
    pool_threads: usize,
    campaign_ns: u64,
    /// Rounds of the links that screening ruled out.
    screen_rounds: u64,
    /// Rounds of the links probed at full rate, coarse pass included.
    full_rounds: u64,
    /// Samples handed to detection.
    samples: u64,
    /// Links probed, and links whose worker panicked (quarantined).
    links: u64,
    quarantined: u64,
}

fn to_target(l: &InferredLink) -> TslpTarget {
    TslpTarget {
        dst: l.dst,
        near_ttl: l.near_ttl,
        far_ttl: l.far_ttl,
        near_addr: l.near,
        far_addr: l.far,
    }
}

/// `run_vp_study` for one VP, call for call, with a span around each layer.
fn traced_vp(spec: &VpSpec, cfg: &VpStudyConfig, tally: &mut VpTally) -> VpStudy {
    let mut substrate = trace::span("topology.build", || build_vp(spec, cfg.seed));
    cfg.faults.apply(&mut substrate.net);
    let dir = paper_directory();
    let (start, end) = cfg.window.unwrap_or((spec.measure_start, spec.measure_end));

    let mut snapshots = Vec::new();
    let mut discovered: Vec<InferredLink> = Vec::new();
    let mut seen: HashSet<(Ipv4, Ipv4)> = HashSet::new();
    let siblings: HashSet<u32> = substrate
        .orgs
        .sibling_pairs()
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .filter(|&a| substrate.orgs.are_siblings(Asn(a), spec.host_asn))
        .collect();
    let mut disc_ctx = substrate.net.probe_ctx(mix(&[cfg.seed, 0xbd]));
    for &snap in &spec.snapshots {
        let result = trace::span("bdrmap", || {
            let mapper = IpAsnMapper::new(&substrate.bgp, &substrate.delegations, &dir);
            run_bdrmap(
                &substrate.net,
                &mut disc_ctx,
                substrate.vp,
                spec.host_asn,
                &siblings,
                &mapper,
                &BdrmapConfig::default(),
                snap,
            )
        });
        let acc = trace::span("bdrmap.score", || score(&substrate, &result, snap));
        snapshots.push(SnapshotCounts {
            date: snap,
            links: result.links.len(),
            peering_links: result.peering_links().len(),
            neighbors: result.neighbors.len(),
            peers: result.peers().len(),
            congested_peering: 0,
            accuracy: acc,
        });
        for l in result.links {
            if seen.insert((l.near, l.far)) {
                discovered.push(l);
            }
        }
    }
    if let Some(cap) = cfg.max_links {
        discovered.truncate(cap);
    }
    let mut campaign = if cfg.exact_probing {
        CampaignConfig::exact(start, end)
    } else {
        CampaignConfig::paper(start, end)
    };
    campaign.threads = cfg.threads;
    let truth_of = |near: Ipv4, far: Ipv4| -> Option<TruthKind> {
        substrate
            .links
            .iter()
            .find(|t| t.near == near && t.far == far)
            .map(|t| t.kind.clone())
    };
    let geodb = GeoDb::build(
        &substrate.delegations,
        &dir,
        0.08,
        ixp_simnet::rng::HashNoise::new(cfg.seed ^ 0x9e0),
    );
    let addr_to_link: HashMap<Ipv4, u64> = {
        let mut m = HashMap::new();
        for nid in substrate.net.node_ids() {
            for iface in &substrate.net.node(nid).ifaces {
                if let Some((lid, _)) = iface.link {
                    m.insert(iface.addr, lid.0 as u64);
                }
            }
        }
        m
    };
    let targets: Vec<TslpTarget> = discovered.iter().map(to_target).collect();
    let busy = trace::PoolBusy::default();
    let campaign_t0 = trace::now_ns();
    let results = trace::span("campaign", || {
        let parent = trace::current();
        pool_try_map_rec(
            campaign.threads,
            &targets,
            || (DetectorScratch::new(), ProbeCtx::default()),
            |(scratch, ctx), i, t| {
                trace::under(parent, || {
                    trace::span("campaign.link", || {
                        let l = &discovered[i];
                        let m0 = trace::now_ns();
                        let (series, screened_out) = tslp_core::campaign::measure_link_in(
                            &substrate.net,
                            ctx,
                            substrate.vp,
                            t,
                            &campaign,
                        );
                        let name = if screened_out {
                            "campaign.screen"
                        } else {
                            "campaign.full"
                        };
                        trace::record(name, m0, trace::now_ns());
                        let mask =
                            trace::span("health", || classify_link(&series, &cfg.assess.health));
                        let sweep_full = trace::span("detect", || {
                            assess_at_thresholds_masked_with(
                                &series,
                                &cfg.assess,
                                &THRESHOLDS_MS,
                                &mask,
                                scratch,
                            )
                        });
                        let assessment = sweep_full
                            .iter()
                            .find(|(t, _)| *t == cfg.assess.threshold_ms)
                            .map(|(_, a)| a.clone())
                            .unwrap_or_else(|| sweep_full[1].1.clone());
                        let sweep: Vec<(f64, bool, bool)> = sweep_full
                            .iter()
                            .map(|(t, a)| (*t, a.flagged, a.diurnal))
                            .collect();
                        let symmetry = if cfg.with_rr && assessment.diurnal {
                            Some(trace::span("rr", || {
                                let resolve = |addr: Ipv4| addr_to_link.get(&addr).copied();
                                let when = assessment
                                    .events
                                    .first()
                                    .map(|e| {
                                        e.start
                                            + SimDuration::from_micros(e.width().as_micros() / 2)
                                    })
                                    .unwrap_or(start);
                                let mut rr_ctx = substrate.net.probe_ctx(mix(&[
                                    l.near.0 as u64,
                                    l.far.0 as u64,
                                    0x5252,
                                ]));
                                record_route_symmetry(
                                    &substrate.net,
                                    &mut rr_ctx,
                                    substrate.vp,
                                    l.far,
                                    resolve,
                                    when,
                                )
                            }))
                        } else {
                            None
                        };
                        let loss = if cfg.with_loss
                            && assessment.congested
                            && assessment.events.len() >= 3
                        {
                            let last_valid = series
                                .far_clean()
                                .1
                                .last()
                                .map(|&i| series.timestamp(i) + SimDuration::from_days(1))
                                .unwrap_or(end);
                            let loss_start =
                                ixp_traffic::scenarios::dates::loss_campaign_start().max(start);
                            let loss_end = ixp_traffic::scenarios::dates::loss_campaign_end()
                                .min(end)
                                .min(last_valid);
                            (loss_start < loss_end).then(|| {
                                trace::span("loss", || {
                                    let lc = LossCampaignConfig::paper(loss_start, loss_end);
                                    let ls = measure_loss_series(
                                        &substrate.net,
                                        substrate.vp,
                                        l.dst,
                                        l.far_ttl,
                                        &lc,
                                    );
                                    let split = split_by_events(&ls, &assessment.events);
                                    LossSummary {
                                        mean: ls.mean(),
                                        max: ls.max(),
                                        during_events: split.during_events,
                                        outside_events: split.outside_events,
                                    }
                                })
                            })
                        } else {
                            None
                        };
                        trace::span("study.outcome", || {
                            let geo_consistent = link_in_country(
                                &geodb,
                                (l.near, substrate.rdns.get(&l.near).map(|s| s.as_str())),
                                (l.far, substrate.rdns.get(&l.far).map(|s| s.as_str())),
                                spec.country,
                            );
                            let keep = cfg.keep_series
                                && (assessment.congested
                                    || matches!(
                                        truth_of(l.near, l.far),
                                        Some(TruthKind::CaseStudy { .. })
                                    ));
                            let rounds = series.len() as u64 * 2;
                            let len = series.len();
                            let outcome = LinkOutcome {
                                near: l.near,
                                far: l.far,
                                far_asn: l.far_asn,
                                far_name: substrate.asdb.name_of(l.far_asn),
                                at_ixp: l.at_ixp,
                                sweep,
                                health: mask.overall,
                                artifact_events: assessment.artifacts.len(),
                                gap_artifacts: assessment
                                    .artifact_causes
                                    .iter()
                                    .filter(|c| c.is_gap())
                                    .count(),
                                path_artifacts: assessment
                                    .artifact_causes
                                    .iter()
                                    .filter(|c| !c.is_gap())
                                    .count(),
                                quarantined: None,
                                assessment,
                                symmetry,
                                geo_consistent,
                                loss,
                                truth: truth_of(l.near, l.far),
                                series: if keep { Some(series.clone()) } else { None },
                                screened_out,
                            };
                            (outcome, rounds, len)
                        })
                    })
                })
            },
            &busy,
            "campaign",
            |_, t| link_key(t).label(),
        )
    });
    tally.campaign_ns = trace::now_ns() - campaign_t0;
    tally.worker_busy_s = busy.seconds();
    tally.pool_threads = resolve_threads(campaign.threads).min(targets.len().max(1));

    let coarse_rounds = campaign.screening.map_or(0, |sc| {
        tslp_core::series::SeriesConfig {
            start,
            interval: sc.interval,
        }
        .rounds_until(end) as u64
    });
    let mut screened = 0usize;
    let mut probe_rounds = 0u64;
    let mut outcomes = Vec::with_capacity(results.len());
    tally.links = results.len() as u64;
    tally.quarantined = results.iter().filter(|r| r.is_err()).count() as u64;
    // A quarantined link has no traced counterpart; the digest check
    // against the untraced run then fails loudly.
    for (o, rounds, len) in results.into_iter().flatten() {
        probe_rounds += rounds;
        screened += usize::from(o.screened_out);
        tally.samples += len as u64;
        if o.screened_out {
            tally.screen_rounds += len as u64;
        } else {
            tally.full_rounds += len as u64 + coarse_rounds;
        }
        outcomes.push(o);
    }
    let margin = SimDuration::from_days(20);
    for snap in snapshots.iter_mut() {
        snap.congested_peering = outcomes
            .iter()
            .filter(|o| o.congested() && o.at_ixp)
            .filter(|o| {
                o.assessment
                    .events
                    .iter()
                    .any(|e| e.end + margin >= snap.date && e.start <= snap.date + margin)
            })
            .count();
    }
    VpStudy {
        spec: spec.clone(),
        snapshots,
        outcomes,
        screened,
        probe_rounds,
    }
}

/// The traced run: the untraced call's twin with spans, then per-layer
/// metrics, the digest comparison and the partition check.
fn traced_run(
    args: &Args,
    specs: &[VpSpec],
    cfg: &VpStudyConfig,
    untraced_digest: u64,
    untraced_wall: f64,
    r: &mut RunResult,
) {
    trace::take(); // start from empty lanes
    let t = Instant::now();
    let mut tallies: Vec<VpTally> = specs.iter().map(|_| VpTally::default()).collect();
    let mut slots: Vec<Option<VpStudy>> = specs.iter().map(|_| None).collect();
    std::thread::scope(|sc| {
        for ((spec, slot), tally) in specs.iter().zip(slots.iter_mut()).zip(tallies.iter_mut()) {
            sc.spawn(move || {
                *slot = Some(trace::span_labeled(
                    "study.vp",
                    Some(spec.name.to_string()),
                    || traced_vp(spec, cfg, tally),
                ));
            });
        }
    });
    let studies: Vec<VpStudy> = slots
        .into_iter()
        .map(|s| s.expect("VP thread finished"))
        .collect();
    let report = trace::span("study.report", || StudyReport::build(&studies));
    let traced_wall = util::secs(t);
    let d = digest(&studies, &report);
    r.check(
        "traced_digest_matches_untraced",
        d == untraced_digest,
        format!("traced {d:016x}, untraced {untraced_digest:016x}"),
    );

    let profile = trace::finish(&args.spans_path());
    r.set("topology.build_s", profile.self_s("topology.build"));
    r.set("bdrmap.busy_s", profile.self_s("bdrmap"));
    r.set(
        "bdrmap.links",
        studies.iter().map(|s| s.outcomes.len() as f64).sum(),
    );
    r.set("campaign.screen.busy_s", profile.self_s("campaign.screen"));
    r.set("campaign.full.busy_s", profile.self_s("campaign.full"));
    r.set("campaign.screen.links", profile.count("campaign.screen"));
    r.set("campaign.full.links", profile.count("campaign.full"));
    let sum = |f: fn(&VpTally) -> u64| tallies.iter().map(|t| f(t) as f64).sum::<f64>();
    let flagged = |o: &&LinkOutcome| o.sweep.iter().any(|&(_, f, _)| f);
    let all = || studies.iter().flat_map(|s| &s.outcomes);
    let full_useful = all().filter(|o| !o.screened_out).filter(flagged).count() as f64;
    r.set("campaign.screen.rounds", sum(|t| t.screen_rounds));
    r.set("campaign.full.rounds", sum(|t| t.full_rounds));
    r.set(
        "campaign.full.useful_frac",
        full_useful / profile.count("campaign.full").max(1.0),
    );
    let worker_busy: f64 = tallies.iter().map(|t| t.worker_busy_s).sum();
    let pool_span: f64 = tallies
        .iter()
        .map(|t| t.pool_threads as f64 * t.campaign_ns as f64 / 1e9)
        .sum();
    r.set("campaign.worker.busy_s", worker_busy);
    r.set("campaign.pool.idle_s", (pool_span - worker_busy).max(0.0));
    r.set(
        "campaign.failed_frac",
        sum(|t| t.quarantined) / sum(|t| t.links).max(1.0),
    );
    r.set("health.busy_s", profile.self_s("health"));
    r.set("detect.busy_s", profile.self_s("detect"));
    r.set("detect.samples", sum(|t| t.samples));
    r.set("detect.flagged", all().filter(flagged).count() as f64);
    r.set("rr.busy_s", profile.self_s("rr"));
    r.set("rr.checks", profile.count("rr"));
    r.set("loss.busy_s", profile.self_s("loss"));
    r.set("loss.campaigns", profile.count("loss"));
    r.set("study.outcome.busy_s", profile.self_s("study.outcome"));
    r.set("study.report_s", profile.self_s("study.report"));
    let vp_walls: Vec<(String, f64)> = profile
        .spans
        .iter()
        .filter(|s| s.name == "study.vp")
        .map(|s: &Span| (s.label.clone().unwrap_or_default(), s.dur_ns() as f64 / 1e9))
        .collect();
    for (name, w) in &vp_walls {
        r.set(&format!("study.vp.{name}.wall_s"), *w);
    }
    let mean = vp_walls.iter().map(|v| v.1).sum::<f64>() / vp_walls.len().max(1) as f64;
    let max = vp_walls.iter().map(|v| v.1).fold(0.0, f64::max);
    r.set("study.vp_skew", if mean > 0.0 { max / mean } else { 0.0 });

    // The named layers must account for the pool workers' busy time.
    let named: f64 = [
        "campaign.screen",
        "campaign.full",
        "health",
        "detect",
        "rr",
        "loss",
        "study.outcome",
    ]
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
