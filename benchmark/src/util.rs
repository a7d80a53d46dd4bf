//! Small helpers shared by the workloads: order statistics, process
//! resource readings, digests, and the source fingerprint.

use std::path::Path;
use std::time::Instant;

/// Median of `v` (the lower-middle element for even lengths averaged with
/// the upper one); NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in timing sample"));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds, from `/proc/self/stat`. Clock-tick resolution (10 ms).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time of the calling thread in nanoseconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. Unlike wall time it leaves out
/// the time the thread was not running, whether preempted or stolen by the
/// host.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of the process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    ixp_obs::peak_rss_mb().unwrap_or(f64::NAN)
}

/// Time `f` in `reps` samples of `batch` back-to-back calls each, after
/// `warmup` untimed samples that let the allocator and caches settle, and
/// return the median per-call wall time in seconds with the last result.
/// Set-up is timed this way: several times per run, batched when one call
/// is too short for the clock. The samples are spread over about a second
/// (a pause between them), because on a shared host a few milliseconds of
/// single-threaded work see one momentary host state, and the median
/// should not hang on which one a run happened to start in.
pub fn timed_median<T>(
    warmup: usize,
    reps: usize,
    batch: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    for _ in 0..warmup * batch.max(1) {
        std::hint::black_box(f());
    }
    let gap = std::time::Duration::from_secs(1) / reps.max(1) as u32;
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        std::thread::sleep(gap);
        let t = Instant::now();
        for _ in 0..batch.max(1) {
            last = Some(f());
        }
        times.push(secs(t) / batch.max(1) as f64);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// FNV-1a over a byte stream, for result digests.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// splitmix64 of `(a, b)`: the workload generators' deterministic hash.
pub fn hash2(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_add(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprint of the program under test: an FNV digest over every `.rs`
/// and `.toml` file of the repository's crates and vendored shims, so a
/// result can be tied to the exact sources it measured even when the
/// checkout is not a git repository. Also returns the git HEAD when one is
/// readable.
pub fn source_fingerprint(repo: &Path) -> (String, Option<String>) {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "vendor"] {
        walk(&repo.join(sub), &mut files);
    }
    files.push(repo.join("Cargo.toml"));
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let Ok(b) = std::fs::read(f) {
            h.str(&f.strip_prefix(repo).unwrap_or(f).to_string_lossy());
            h.bytes(&b);
        }
    }
    let head = std::fs::read_to_string(repo.join(".git/HEAD"))
        .ok()
        .and_then(|h| {
            let h = h.trim();
            match h.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(repo.join(".git").join(r)).ok(),
                None => Some(h.to_string()),
            }
            .map(|s| s.trim().to_string())
        });
    (format!("{:016x}", h.0), head)
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number: finite values print with full precision, others as null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Number of distinct values in `v`.
pub fn distinct(v: &[u64]) -> usize {
    let mut s = v.to_vec();
    s.sort_unstable();
    s.dedup();
    s.len()
}

/// A JSON list of numbers.
pub fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",")
    )
}
