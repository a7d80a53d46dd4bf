//! `monitor_fleet`: the resident monitor keeping up with a whole fleet.
//!
//! A 100k-link `MonitorService` (32 shards, `threads: 1`) fed open-loop
//! through `ingest_sequenced` by the main thread — one round due every
//! 35 ms, 2.9 M samples/s offered — while one dashboard reader thread polls
//! `verdict` the whole time. Traffic: diurnal plateaus on 2% of links and an
//! at-least-once collector mix (one-round reorders, duplicate replays, a few
//! stale replays, and periodic catch-up bursts above `max_shard_batch`, so
//! shedding fires). The traced run splits ingest into partition, admission,
//! detector push and index publish: half a period after the service takes
//! each round, it feeds the same round to a replica built from
//! `SeqGate::admit`, `LinkState::push` and `VerdictIndex::publish`, timed in
//! per-shard blocks, and checks the split against the service's own ingest
//! time over the same rounds.

use crate::trace;
use crate::util::{self, hash2, Fnv};
use crate::{Args, Corrupt, RunResult, Size};
use ixp_monitor::{
    LinkDesc, LinkState, LinkVerdict, MonitorConfig, MonitorSample, MonitorService, SeqGate,
    VerdictIndex,
};
use ixp_simnet::rng::mix;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Fleet shape and offered load.
#[derive(Clone, Copy, Debug)]
struct Fleet {
    links: u32,
    shards: usize,
    ixps: u32,
    period: Duration,
    rounds: u64,
    /// Per-shard admission bound: a round's normal demand fits, a catch-up
    /// burst does not.
    max_shard_batch: usize,
    seed: u64,
}

/// Rounds in the catch-up cycle: once per cycle, 40% of the collectors miss
/// a round and deliver it with the next one.
const BURST_EVERY: u64 = 50;
const BURST_AT: u64 = 25;
/// One in this many links carries a business-hours plateau.
const PLATEAU_EVERY: u32 = 50;
/// 5-minute rounds per day.
const DAY_ROUNDS: u64 = 288;
/// Fewest rounds that cover the first plateau and its detection.
const MIN_ROUNDS: u64 = 300;

impl Fleet {
    fn new(args: &Args) -> Fleet {
        // One thread ingests 6–7 M samples/s on the 2-core reference host,
        // so a 35 ms round keeps it near 45% busy: loaded enough for
        // queueing to show, far enough from saturation that the median
        // round does not ride a growing backlog. The tiny size keeps the
        // fleet and only shortens the run: the traced run's block-timed
        // split tracks the live service to within 5% at this size, but runs
        // 4–13% over it at 20k links, where the fleet's state fits in cache.
        let (links, shards, period) = (100_000, 32, Duration::from_millis(35));
        let rounds = ((args.seconds / period.as_secs_f64()) as u64).max(MIN_ROUNDS);
        let per_shard = links as usize / shards;
        Fleet {
            links,
            shards,
            ixps: 64,
            period,
            rounds: if args.size == Size::Tiny {
                MIN_ROUNDS + 100
            } else {
                rounds
            },
            max_shard_batch: per_shard * 5 / 4,
            seed: args.seed,
        }
    }

    fn config(&self) -> MonitorConfig {
        MonitorConfig {
            shards: self.shards,
            threads: 1,
            max_shard_batch: self.max_shard_batch,
            shed_seed: hash2(self.seed, 0x5EED),
            ..MonitorConfig::default()
        }
    }

    fn plateau(id: u32) -> bool {
        id.is_multiple_of(PLATEAU_EVERY)
    }

    /// Collectors that miss the burst round and catch up on the next one.
    fn catches_up(id: u32) -> bool {
        id % 5 < 2
    }

    /// The measurement link `id` reports for round `x`.
    fn sample(&self, id: u32, x: u64) -> MonitorSample {
        let h = hash2(self.seed ^ ((id as u64) << 20), x);
        if h.is_multiple_of(200) {
            return MonitorSample::lost();
        }
        let hour = (x % DAY_ROUNDS) as f64 * 5.0 / 60.0;
        let lift = if Self::plateau(id) && (9.0..17.0).contains(&hour) {
            14.0
        } else {
            0.0
        };
        let jitter = ((h >> 8) % 1000) as f64 / 1000.0;
        MonitorSample {
            far_ms: 10.0 + jitter + lift,
            path_fp: 1,
            far_addr_ok: true,
        }
    }

    fn event(&self, id: u32, x: u64, salt: u64) -> u64 {
        hash2(hash2(self.seed, salt) ^ id as u64, x)
    }

    /// Round `x` swaps with round `x + 1` for this link (≈1%), never next
    /// to a burst and never twice in a row.
    fn swaps(&self, id: u32, x: u64) -> bool {
        let raw = |x: u64| {
            x + 1 < self.rounds
                && !(BURST_AT - 2..=BURST_AT + 2).contains(&(x % BURST_EVERY))
                && self.event(id, x, 1).is_multiple_of(100)
        };
        raw(x) && (x == 0 || !raw(x - 1))
    }

    /// Append round `x`'s arrivals to `batch`: `(link, sequence, sample)`.
    fn round(&self, x: u64, batch: &mut Vec<(u32, u64, MonitorSample)>) {
        batch.clear();
        let burst = x % BURST_EVERY == BURST_AT;
        let catch_up = x % BURST_EVERY == BURST_AT + 1;
        for id in 0..self.links {
            if Self::catches_up(id) && burst {
                continue;
            }
            if Self::catches_up(id) && catch_up {
                batch.push((id, x - 1, self.sample(id, x - 1)));
                batch.push((id, x, self.sample(id, x)));
                continue;
            }
            let seq = if self.swaps(id, x) {
                x + 1
            } else if x > 0 && self.swaps(id, x - 1) {
                x - 1
            } else {
                x
            };
            batch.push((id, seq, self.sample(id, seq)));
            let e = self.event(id, x, 2);
            if x > 0 && e % 200 == 1 {
                // Duplicate replay of the previous round.
                batch.push((id, x - 1, self.sample(id, x - 1)));
            } else if x >= 100 && e % 100_000 == 7 {
                // Stale replay from far behind the window.
                batch.push((id, x - 100, self.sample(id, x - 100)));
            }
        }
    }
}

/// Admission totals over a run.
#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    offered: u64,
    accepted: u64,
    delivered: u64,
    rejected: u64,
    shed: u64,
    duplicates: u64,
    stale: u64,
    reordered: u64,
    dropped: u64,
}

/// The service's own verdict rule, rebuilt from `LinkState`'s public
/// accessors for the replay's publish block.
fn verdict_of(st: &LinkState, cfg: &MonitorConfig) -> LinkVerdict {
    let det = st.detector();
    LinkVerdict {
        round: st.rounds(),
        elevated: det.is_elevated(),
        baseline_ms: det.baseline(),
        elevation_ms: det.elevation_estimate(),
        health: st.health(cfg),
        alarms: st.alarms(),
        masked_alarms: st.masked_alarms(),
        gaps: det.gap_count(),
        evidence: st.verdict_evidence(),
    }
}

fn verdict_digest(verdicts: impl Iterator<Item = LinkVerdict>) -> u64 {
    let mut h = Fnv::default();
    for v in verdicts {
        h.u64(v.round);
        h.u64(v.elevated as u64);
        h.u64(v.baseline_ms.to_bits());
        h.u64(v.elevation_ms.to_bits());
        h.str(v.health.token());
        h.u64(v.alarms);
        h.u64(v.masked_alarms);
        h.u64(v.gaps);
    }
    h.0
}

fn setup(fleet: &Fleet) -> MonitorService {
    let descs: Vec<LinkDesc> = (0..fleet.links)
        .map(|i| LinkDesc {
            ixp: i % fleet.ixps,
        })
        .collect();
    MonitorService::new(fleet.config(), &descs)
}

/// Wait until `due`: sleep most of the way, spin the rest.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(500) {
        std::thread::sleep(due - now - Duration::from_micros(400));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

pub fn run(args: &Args) -> RunResult {
    let mut r = RunResult::default();
    let fleet = Fleet::new(args);
    let (setup_s, svc) = util::timed_median(2, 9, 1, || setup(&fleet));
    r.set("setup_s", setup_s);
    // The traced run feeds each round to the replica half a period after
    // the live service has taken it, so its period doubles: the live
    // service sees the same utilisation as untraced, and both passes see
    // the same host and the same reader.
    let period = if args.traced {
        fleet.period * 2
    } else {
        fleet.period
    };
    let offered_rate = fleet.links as f64 / period.as_secs_f64();
    r.regime("links", fleet.links.to_string());
    r.regime("shards", fleet.shards.to_string());
    r.regime("rounds", fleet.rounds.to_string());
    r.regime("period_ms", util::json_num(period.as_secs_f64() * 1e3));
    r.regime("offered_samples_per_s", util::json_num(offered_rate));
    r.regime("max_shard_batch", fleet.max_shard_batch.to_string());
    r.regime(
        "threads",
        "{\"ingest\":1,\"generator\":\"main (same as ingest)\",\"readers\":1}".to_string(),
    );
    r.regime(
        "loop",
        util::json_str(
            "open: each round is due at a fixed time whether or not the last one finished",
        ),
    );
    r.regime(
        "caches",
        util::json_str("warm: the service is built in set-up; link state starts empty"),
    );

    // ---- The live run: generator + ingest on this thread, one reader. ----
    let mut replica = args.traced.then(|| Replica::new(&fleet));
    let replica_index = args.traced.then(|| Replica::index(&fleet));
    if args.traced {
        trace::take();
    }
    let stop = AtomicBool::new(false);
    // Which index the reader polls: 0 the service's, 1 the replica's. The
    // main thread points it at whichever pass is running, so the replay's
    // publish meets the same reader as the live one.
    let target = AtomicU8::new(0);
    let mut latency_ms = Vec::with_capacity(fleet.rounds as usize);
    let mut service_ms = Vec::with_capacity(fleet.rounds as usize);
    let mut service_cpu_ms = Vec::with_capacity(fleet.rounds as usize);
    let mut lag_max_ms = 0.0f64;
    let mut misses = 0u64;
    let mut refused = 0u64;
    let mut t = Totals::default();
    let run_t0 = Instant::now();
    let ((reads, read_busy_s, reader_wall_s), cpu) = std::thread::scope(|sc| {
        let reader = sc.spawn(|| {
            let t0 = Instant::now();
            let (mut reads, mut busy, mut acc, mut k) = (0u64, 0.0f64, 0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let b = Instant::now();
                let index = match (target.load(Ordering::Relaxed), &replica_index) {
                    (1, Some(ix)) => Some(ix),
                    _ => None,
                };
                for _ in 0..256 {
                    k += 1;
                    let id = (hash2(fleet.seed, k) % fleet.links as u64) as u32;
                    let v = match index {
                        Some(ix) => ix.verdict(id),
                        None => svc.verdict(id),
                    };
                    acc = acc.wrapping_add(v.alarms);
                }
                busy += util::secs(b);
                reads += 256;
            }
            std::hint::black_box(acc);
            (reads, busy, util::secs(t0))
        });
        // CPU of this thread alone: generator and ingest, not the reader,
        // whose cost is `index.read.busy_s`.
        let cpu0 = util::thread_cpu_ns();
        let mut batch = Vec::new();
        let start = Instant::now() + Duration::from_millis(5);
        for x in 0..fleet.rounds {
            fleet.round(x, &mut batch);
            t.offered += batch.len() as u64;
            if args.corrupt == Corrupt::Sample && x == 10 {
                batch.pop(); // swallowed between collector and service
            }
            let due = start + period * x as u32;
            wait_until(due);
            let c0 = util::thread_cpu_ns();
            let s = Instant::now();
            lag_max_ms = lag_max_ms.max((s - due).as_secs_f64() * 1e3);
            let rep = svc.ingest_sequenced(&batch);
            let e = Instant::now();
            service_cpu_ms.push((util::thread_cpu_ns() - c0) as f64 / 1e6);
            service_ms.push((e - s).as_secs_f64() * 1e3);
            latency_ms.push((e - due).as_secs_f64() * 1e3);
            if e > due + period {
                misses += 1;
            }
            if rep.accepted == 0 && !batch.is_empty() {
                refused += 1;
            }
            t.accepted += rep.accepted;
            t.delivered += rep.delivered;
            t.rejected += rep.rejected;
            t.shed += rep.shed;
            t.duplicates += rep.duplicates;
            t.stale += rep.stale;
            t.reordered += rep.reordered;
            t.dropped += rep.dropped;
            if let (Some(replica), Some(index)) = (replica.as_mut(), &replica_index) {
                // Due half a period after the live call, so each pass starts
                // from the same wait and finds the caches as cold.
                wait_until(due + period / 2);
                target.store(1, Ordering::Relaxed);
                replica.round(x, &batch, index);
                target.store(0, Ordering::Relaxed);
            }
        }
        let cpu = (util::thread_cpu_ns() - cpu0) as f64 / 1e9;
        stop.store(true, Ordering::Relaxed);
        (reader.join().expect("reader thread"), cpu)
    });
    let run_wall = util::secs(run_t0);

    let rounds = fleet.rounds as f64;
    let ingest = Ingest {
        wall_s: service_ms.iter().sum::<f64>() / 1e3,
        cpu_s: service_cpu_ms.iter().sum::<f64>() / 1e3,
    };
    let p50 = util::quantile(&latency_ms, 0.5);
    // A round's service time while the host lets the thread run: the median
    // over the run's rounds of the ingest thread's CPU time inside
    // `ingest_sequenced`. On a shared host other tenants take the CPU away
    // for seconds at a time, which stretches the wall time of whole runs of
    // rounds but not the time the thread spends on the CPU. Queue wait and
    // the wall-clock service times are on the report line.
    r.set("wall_s", util::median(&service_cpu_ms) / 1e3);
    r.set("cpu_s", cpu);
    r.set("peak_rss_mb", util::peak_rss_mb());
    r.set("round_p50_ms", p50);
    r.set("round_p99_ms", util::quantile(&latency_ms, 0.99));
    r.set("service_p10_ms", util::quantile(&service_ms, 0.10));
    r.set("service_p50_ms", util::quantile(&service_ms, 0.5));
    r.set("deadline_miss_frac", (misses + refused) as f64 / rounds);
    r.set("ingest_samples_per_s", t.offered as f64 / ingest.wall_s);
    r.set("reads_per_s", reads as f64 / reader_wall_s);
    let valid = t.offered - t.rejected;
    let quarantined = svc.quarantined_shards();
    r.set("failed_frac", t.shed as f64 / valid.max(1) as f64);
    r.set("gen.lag_max_ms", lag_max_ms);
    r.set("run_wall_s", run_wall);
    for (k, v) in [
        ("monitor.round_p50_ms", p50),
        ("monitor.round_p99_ms", util::quantile(&latency_ms, 0.99)),
    ] {
        r.set(k, v);
    }
    for k in [
        "deadline_miss_frac",
        "ingest_samples_per_s",
        "reads_per_s",
        "failed_frac",
    ] {
        let v = r.metrics[k];
        r.set(&format!("monitor.{k}"), v);
    }
    // Busy = on the CPU: this thread's CPU time inside the calls. Their wall
    // time, which also counts time the host took the CPU away, is
    // `monitor.ingest.wall_s`.
    r.set("monitor.ingest.busy_s", ingest.cpu_s);
    r.set("monitor.ingest.wall_s", ingest.wall_s);
    r.set("monitor.ingest.p99_ms", util::quantile(&service_ms, 0.99));
    r.set("index.read.busy_s", read_busy_s);
    r.set("index.reads", reads as f64);
    r.set("monitor.shed", t.shed as f64);
    r.set("monitor.dropped", t.dropped as f64);
    r.set("monitor.duplicates", t.duplicates as f64);
    r.set("monitor.stale", t.stale as f64);
    r.set("monitor.reordered", t.reordered as f64);
    r.set("monitor.push.samples", t.delivered as f64);
    r.set(
        "monitor.admit.slow_frac",
        (t.reordered + t.duplicates + t.stale) as f64 / t.offered.max(1) as f64,
    );
    r.attempted = fleet.rounds;
    r.failed = refused;

    // ---- Output checks. ----
    let mut verdicts: Vec<LinkVerdict> = (0..fleet.links).map(|id| svc.verdict(id)).collect();
    let live_digest = verdict_digest(verdicts.iter().copied());
    if args.corrupt == Corrupt::Verdict {
        if let Some(v) = verdicts
            .iter_mut()
            .enumerate()
            .find(|(id, _)| !Fleet::plateau(*id as u32))
            .map(|(_, v)| v)
        {
            v.elevated = true;
            v.alarms += 1;
        }
    }
    let plateaus: Vec<u32> = (0..fleet.links).filter(|&id| Fleet::plateau(id)).collect();
    let silent = plateaus
        .iter()
        .filter(|&&id| verdicts[id as usize].alarms == 0)
        .count();
    let false_elev = (0..fleet.links)
        .filter(|&id| !Fleet::plateau(id))
        .filter(|&id| verdicts[id as usize].alarms > 0 || verdicts[id as usize].elevated)
        .count();
    r.check(
        "every_plateau_link_alarms",
        silent == 0,
        format!(
            "{} of {} plateau links alarmed",
            plateaus.len() - silent,
            plateaus.len()
        ),
    );
    r.check(
        "no_false_elevations",
        false_elev == 0,
        format!("{false_elev} quiet links alarmed or elevated"),
    );
    let buffered: u64 = (0..fleet.links)
        .map(|id| svc.seq_stats(id).buffered as u64)
        .sum();
    let accounted = t.accepted + t.shed + t.rejected == t.offered
        && t.delivered + t.duplicates + t.stale + buffered == t.accepted
        && svc.samples_ingested() == t.delivered;
    r.check(
        "admission_accounts_for_every_sample",
        accounted,
        format!(
            "offered {} = accepted {} + shed {} + rejected {}; accepted = delivered {} + duplicates {} + stale {} + buffered {}",
            t.offered, t.accepted, t.shed, t.rejected, t.delivered, t.duplicates, t.stale, buffered
        ),
    );
    r.check(
        "no_quarantined_shards",
        quarantined == 0,
        format!("{quarantined} shards quarantined"),
    );
    r.check(
        "shedding_fired",
        t.shed > 0,
        format!("{} samples shed", t.shed),
    );
    r.regime("digest", util::json_str(&format!("{live_digest:016x}")));

    if let (Some(replica), Some(index)) = (replica, &replica_index) {
        replica.finish(args, index, live_digest, &ingest, &mut r);
    }
    r
}

/// The traced run's layer split: the service's building blocks —
/// `SeqGate::admit`, `LinkState::push`, `VerdictIndex::publish` — over a
/// replica of the fleet, fed each round half a period after the live
/// service, one shard block at a time.
struct Replica {
    cfg: MonitorConfig,
    links: Vec<Vec<LinkState>>,
    gates: Vec<Vec<SeqGate>>,
    ixp_of: Vec<u32>,
    /// One shard block's samples delivered by items that did not arrive
    /// clean and in order, and for each such item its index and where its
    /// deliveries end.
    delivered: Vec<MonitorSample>,
    slow: Vec<(u32, u32)>,
    clock: StepClock,
}

impl Replica {
    fn new(fleet: &Fleet) -> Replica {
        let cfg = fleet.config();
        let n = fleet.links as usize;
        let shards = fleet.shards;
        let slots = |s: usize| n / shards + usize::from(s < n % shards);
        Replica {
            links: (0..shards)
                .map(|s| {
                    (0..slots(s))
                        .map(|_| LinkState::with_config(&cfg))
                        .collect()
                })
                .collect(),
            gates: (0..shards)
                .map(|s| (0..slots(s)).map(|_| SeqGate::new()).collect())
                .collect(),
            ixp_of: (0..fleet.links).map(|i| i % fleet.ixps).collect(),
            delivered: Vec::new(),
            slow: Vec::new(),
            clock: StepClock::default(),
            cfg,
        }
    }

    /// The replica's verdict index, held apart so the reader can poll it.
    fn index(fleet: &Fleet) -> VerdictIndex {
        VerdictIndex::new(fleet.links as usize, fleet.shards, fleet.ixps as usize)
    }

    /// Round `x`'s arrivals, as `ingest_sequenced` takes them: validate and
    /// split by shard, shed above `max_shard_batch`, then per shard admit,
    /// push and publish.
    fn round(&mut self, x: u64, batch: &[(u32, u64, MonitorSample)], index: &VerdictIndex) {
        let shards = self.links.len();
        let n = self.ixp_of.len();
        trace::span("monitor.replay.round", || {
            self.clock.start();
            let cfg = &self.cfg;
            let mut per_shard: Vec<Vec<(u64, u32, MonitorSample)>> = vec![Vec::new(); shards];
            for &(id, seq, s) in batch {
                if (id as usize) < n && seq != u64::MAX {
                    per_shard[id as usize % shards].push((seq, id, s));
                }
            }
            let cap = cfg.max_shard_batch;
            for items in per_shard.iter_mut().filter(|v| cap > 0 && v.len() > cap) {
                let mut keyed: Vec<(u64, usize)> = items
                    .iter()
                    .enumerate()
                    .map(|(i, &(seq, id, _))| (mix(&[cfg.shed_seed, id as u64, seq, x]), i))
                    .collect();
                keyed.select_nth_unstable(cap - 1);
                let mut keep: Vec<usize> = keyed[..cap].iter().map(|&(_, i)| i).collect();
                keep.sort_unstable();
                *items = keep.into_iter().map(|i| items[i]).collect();
            }
            self.clock.step(0);
            for (shard, items) in per_shard.iter().enumerate() {
                if !items.is_empty() {
                    self.shard_block(shard, items, index);
                }
            }
            // Freeing the split is part of the service's call too.
            drop(per_shard);
            self.clock.step(0);
        });
    }

    fn shard_block(
        &mut self,
        shard: usize,
        items: &[(u64, u32, MonitorSample)],
        index: &VerdictIndex,
    ) {
        let cfg = &self.cfg;
        let shards = self.links.len();
        let (gates, links) = (&mut self.gates[shard], &mut self.links[shard]);
        let (delivered, slow) = (&mut self.delivered, &mut self.slow);
        let clock = &mut self.clock;
        delivered.clear();
        slow.clear();
        for (i, &(seq, id, s)) in items.iter().enumerate() {
            let gate = &mut gates[id as usize / shards];
            // A clean in-order arrival delivers just itself (the service's
            // traced loop makes the same test); only the rest are buffered.
            if gate.in_order(seq) {
                gate.admit(seq, s, cfg.reorder_window, &mut |_| {});
            } else {
                gate.admit(seq, s, cfg.reorder_window, &mut |smp| delivered.push(smp));
                slow.push((i as u32, delivered.len() as u32));
            }
        }
        clock.step(1);
        // Each item's deliveries, then its verdict, while its link state is
        // in cache: the order of the service's loop.
        let mut verdicts: Vec<(u32, LinkVerdict)> = Vec::with_capacity(items.len());
        let (mut from, mut next) = (0, slow.iter().peekable());
        for (i, &(_, id, s)) in items.iter().enumerate() {
            let link = &mut links[id as usize / shards];
            match next.next_if(|&&(j, _)| j as usize == i) {
                Some(&(_, end)) => {
                    for smp in &delivered[from..end as usize] {
                        link.push(smp, cfg);
                    }
                    from = end as usize;
                }
                None => {
                    link.push(&s, cfg);
                }
            }
            verdicts.push((id, verdict_of(link, cfg)));
        }
        clock.step(2);
        index.publish(shard, &verdicts, &self.ixp_of);
        drop(verdicts);
        clock.step(3);
    }

    /// Check the replica against the live service and report the split.
    fn finish(
        self,
        args: &Args,
        index: &VerdictIndex,
        live_digest: u64,
        live: &Ingest,
        r: &mut RunResult,
    ) {
        let n = self.ixp_of.len() as u32;
        let d = verdict_digest((0..n).map(|id| index.verdict(id)));
        r.check(
            "replay_digest_matches_live",
            d == live_digest,
            format!("replay {d:016x}, live {live_digest:016x}"),
        );
        let profile = trace::finish(&args.spans_path());
        for (name, ns) in STEPS.iter().zip(self.clock.cpu_ns) {
            r.set(&format!("{name}.busy_s"), ns as f64 / 1e9);
        }
        // The split is held to the live service's own ingest of the same
        // rounds, on the same clock: this thread's CPU time, which leaves
        // out the stretches the host took the CPU away.
        let named = self.clock.cpu_ns.iter().sum::<u64>() as f64 / 1e9;
        r.partition(
            "layers_partition_live_ingest",
            named,
            live.cpu_s,
            "live ingest CPU",
        );
        r.set(
            "trace.overhead_frac",
            profile.total_s("monitor.replay.round") / live.wall_s - 1.0,
        );
    }
}

/// The replica's steps, in order; their span names.
const STEPS: [&str; 4] = [
    "monitor.partition",
    "monitor.admit",
    "monitor.push",
    "monitor.publish",
];

/// Times the replica's steps back to back: each step runs from the end of
/// the one before, so one clock read closes a step and opens the next.
#[derive(Default)]
struct StepClock {
    /// Wall (for spans) and thread CPU (for busy time) at the last step.
    last: (u64, u64),
    /// Thread CPU time per step of [`STEPS`].
    cpu_ns: [u64; 4],
}

impl StepClock {
    fn read() -> (u64, u64) {
        (trace::now_ns(), util::thread_cpu_ns())
    }

    fn start(&mut self) {
        self.last = Self::read();
    }

    /// Close step `i` (an index into [`STEPS`]) now: a span for the dump,
    /// and its CPU time for the busy total.
    fn step(&mut self, i: usize) {
        let now = Self::read();
        trace::record(STEPS[i], self.last.0, now.0);
        self.cpu_ns[i] += now.1 - self.last.1;
        self.last = now;
    }
}

/// The live service's time inside `ingest_sequenced` over a run.
struct Ingest {
    wall_s: f64,
    cpu_s: f64,
}
