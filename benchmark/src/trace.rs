//! The traced run's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, parent span, and thread. Each thread
//! appends to its own lane (an uncontended mutex), so recording costs two
//! clock reads and one push per span. Everything stays in memory until
//! [`take`] collects the lanes at the end of the run; [`self_times`] then
//! derives each span's self time (its duration minus the part of it that
//! its children cover) and [`dump`] writes the spans out as JSON lines.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span this one was opened under (0 = a root span).
    pub parent: u64,
    pub name: &'static str,
    /// Optional instance label (a VP name).
    pub label: Option<String>,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Lane = Arc<Mutex<Vec<Span>>>;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static LANES: Mutex<Vec<Lane>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: RefCell<Option<(u32, Lane)>> = const { RefCell::new(None) };
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn push(mut s: Span) {
    LANE.with(|l| {
        let mut l = l.borrow_mut();
        let (thread, lane) = l.get_or_insert_with(|| {
            let lane: Lane = Arc::new(Mutex::new(Vec::new()));
            LANES.lock().expect("lane registry").push(lane.clone());
            (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), lane)
        });
        s.thread = *thread;
        lane.lock().expect("span lane").push(s);
    });
}

/// The innermost open span on this thread (0 when none).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Pops the span stack even when the spanned call unwinds, so a panic that
/// a worker pool catches leaves the stack balanced.
struct Pop;

impl Drop for Pop {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` inside a span named `name`, child of this thread's innermost
/// open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_labeled(name, None, f)
}

/// [`span`] with an instance label.
pub fn span_labeled<R>(name: &'static str, label: Option<String>, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    let pop = Pop;
    let start_ns = now_ns();
    let r = f();
    let end_ns = now_ns();
    drop(pop);
    push(Span {
        id,
        parent,
        name,
        label,
        thread: 0,
        start_ns,
        end_ns,
    });
    r
}

/// Run `f` with `parent` (a span opened on another thread) as this
/// thread's innermost open span, so spans opened inside nest under it.
pub fn under<R>(parent: u64, f: impl FnOnce() -> R) -> R {
    STACK.with(|s| s.borrow_mut().push(parent));
    let _pop = Pop;
    f()
}

/// Record a span whose bounds the caller measured itself (block timing),
/// under this thread's innermost open span.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent: current(),
        name,
        label: None,
        thread: 0,
        start_ns,
        end_ns,
    });
}

/// Collect (and clear) every lane's spans.
pub fn take() -> Vec<Span> {
    let lanes = LANES.lock().expect("lane registry");
    let mut out = Vec::new();
    for l in lanes.iter() {
        out.append(&mut l.lock().expect("span lane"));
    }
    out.sort_by_key(|s| s.id);
    out
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to it). Children on different threads may overlap
/// each other; the union counts such overlap once.
fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(iv) = kids.get_mut(&s.id) {
                iv.sort_unstable();
                let (mut cur_s, mut cur_e) = (0u64, 0u64);
                let mut open = false;
                for &(a, b) in iv.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if open && a <= cur_e {
                        cur_e = cur_e.max(b);
                    } else {
                        if open {
                            covered += cur_e - cur_s;
                        }
                        (cur_s, cur_e, open) = (a, b, true);
                    }
                }
                if open {
                    covered += cur_e - cur_s;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, Default)]
struct Layer {
    count: u64,
    total_s: f64,
    self_s: f64,
}

/// A traced run's spans, with per-name totals.
pub struct Profile {
    pub spans: Vec<Span>,
    layers: HashMap<&'static str, Layer>,
}

impl Profile {
    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }
    /// Summed self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layer(name).self_s
    }
    /// Summed duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.layer(name).total_s
    }
    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.layer(name).count as f64
    }
}

/// Collect every span recorded since the last [`take`], derive self times
/// and per-name totals, and write the spans to `path` as JSON lines.
pub fn finish(path: &Path) -> Profile {
    let spans = take();
    let selfs = self_times(&spans);
    let mut layers: HashMap<&'static str, Layer> = HashMap::new();
    for s in &spans {
        let l = layers.entry(s.name).or_default();
        l.count += 1;
        l.total_s += s.dur_ns() as f64 / 1e9;
        l.self_s += selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e9;
    }
    match dump(path, &spans, &selfs) {
        Ok(()) => println!("note: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("note: could not write spans to {}: {e}", path.display()),
    }
    Profile { spans, layers }
}

/// A worker pool's own per-worker busy time, read through the one
/// telemetry hook the campaign pool exposes (`Recorder::worker`): the span
/// that the traced layers must partition.
#[derive(Default)]
pub struct PoolBusy(AtomicU64);

impl PoolBusy {
    pub fn seconds(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl ixp_obs::Recorder for PoolBusy {
    fn enabled(&self) -> bool {
        true
    }
    fn worker(&self, _pool: &str, _worker: usize, _items: u64, busy_ns: u64) {
        self.0.fetch_add(busy_ns, Ordering::Relaxed);
    }
}

/// Write the spans as JSON lines, one span per line, with self times.
fn dump(path: &Path, spans: &[Span], selfs: &HashMap<u64, u64>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.name,
            s.label.as_deref().map(crate::util::json_str).unwrap_or_else(|| "null".into()),
            s.thread,
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0)
        )?;
    }
    w.flush()
}
