//! Flight-recorder tracing: per-thread, fixed-capacity, lock-free event
//! rings that record span-begin/span-end/instant events and export merged
//! timelines as Chrome-trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost while disabled.** Every recording entry point starts
//!    with one relaxed load of a static [`AtomicBool`] and a branch;
//!    nothing else is touched. Instrumentation can therefore live inside
//!    the pool's task loop and the kernels' batch entry points.
//! 2. **No locks while enabled.** Each thread appends to its own ring:
//!    the event slots are plain memory written only by the owning thread,
//!    and the ring's `head` index is published with `Release` so a
//!    draining thread reading it with `Acquire` sees fully written
//!    events. The only lock is a registration mutex taken once per
//!    thread per session.
//! 3. **Bounded memory.** Rings have a fixed capacity chosen at enable
//!    time; once full, new events are *dropped* (not overwritten — a
//!    circular ring would tear the oldest spans mid-nesting) and counted,
//!    so the exporter can say exactly how much is missing.
//!
//! Timestamps come from a single process-wide [`Instant`] epoch, so they
//! are monotonic and mutually comparable across threads.
//!
//! Activation: call [`TraceSession::from_env`] near the top of `main`.
//! When `GF_TRACE=path.json` is set, tracing is enabled for the lifetime
//! of the returned guard and the merged timeline is written to `path` on
//! drop. `GF_TRACE_CAP` overrides the per-thread ring capacity (events).

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events (~40 MB/thread worst case,
/// allocated lazily on a thread's first traced event).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// What a single trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (Chrome `ph: "B"`).
    Begin,
    /// The most recently opened span on this thread closed (`ph: "E"`).
    End,
    /// A point event with no duration (`ph: "i"`).
    Instant,
}

/// One event, as stored in a ring and returned by [`disable_and_drain`].
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch.
    pub ts_nanos: u64,
    /// Event flavour.
    pub kind: TraceKind,
    /// Category (e.g. `"pool"`, `"serve"`, `"phase"`).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Free numeric payload (task index, row count, epoch, ...).
    pub arg: u64,
    /// Small sequential id of the recording thread.
    pub tid: u64,
}

#[derive(Clone, Copy)]
struct RawEvent {
    ts_nanos: u64,
    kind: TraceKind,
    cat: &'static str,
    name: &'static str,
    arg: u64,
}

const EMPTY_RAW: RawEvent = RawEvent {
    ts_nanos: 0,
    kind: TraceKind::Instant,
    cat: "",
    name: "",
    arg: 0,
};

/// Single-producer event ring. The owning thread is the only writer; the
/// drain side reads `head` with `Acquire` and sees a consistent prefix.
struct Ring {
    slots: Box<[std::cell::UnsafeCell<RawEvent>]>,
    head: AtomicUsize,
    dropped: AtomicU64,
    tid: u64,
    thread_name: String,
    session: u64,
}

// Sound: slots are written only by the owning thread, and reads of a slot
// happen only after an Acquire load of `head` observes the Release store
// that published it.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize, tid: u64, thread_name: String, session: u64) -> Ring {
        Ring {
            slots: (0..capacity)
                .map(|_| std::cell::UnsafeCell::new(EMPTY_RAW))
                .collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            tid,
            thread_name,
            session,
        }
    }

    #[inline]
    fn push(&self, ev: RawEvent) {
        let idx = self.head.load(Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Safety: only the owning thread writes slots or advances head.
        unsafe { *self.slots[idx].get() = ev };
        self.head.store(idx + 1, Ordering::Release);
    }

    fn read(&self) -> Vec<RawEvent> {
        let n = self.head.load(Ordering::Acquire);
        (0..n).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

struct Collector {
    rings: Mutex<Vec<Arc<Ring>>>,
    session: AtomicU64,
    capacity: AtomicUsize,
    next_tid: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        rings: Mutex::new(Vec::new()),
        session: AtomicU64::new(0),
        capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
        next_tid: AtomicU64::new(0),
    })
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

/// Whether tracing is currently recording. One relaxed atomic load — this
/// is the entire disabled-path cost of every instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a recording session with `capacity` events per thread. Rings
/// from any previous session are discarded. Process-global: concurrent
/// sessions are not supported (tests serialise on their own mutex).
pub fn enable(capacity: usize) {
    let c = collector();
    let _ = epoch(); // pin the timestamp origin before the first event
    c.session.fetch_add(1, Ordering::SeqCst);
    c.capacity.store(capacity.max(1), Ordering::SeqCst);
    c.rings.lock().unwrap().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns the merged timeline of the session.
pub fn disable_and_drain() -> Timeline {
    ENABLED.store(false, Ordering::SeqCst);
    let c = collector();
    let session = c.session.load(Ordering::SeqCst);
    let rings: Vec<Arc<Ring>> = c.rings.lock().unwrap().clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut threads = Vec::new();
    for ring in rings.iter().filter(|r| r.session == session) {
        dropped += ring.dropped.load(Ordering::Relaxed);
        threads.push((ring.tid, ring.thread_name.clone()));
        for raw in ring.read() {
            events.push(TraceEvent {
                ts_nanos: raw.ts_nanos,
                kind: raw.kind,
                cat: raw.cat,
                name: raw.name,
                arg: raw.arg,
                tid: ring.tid,
            });
        }
    }
    threads.sort();
    // Stable order: by timestamp, ties broken by thread id (within one
    // thread events are already recorded in timestamp order).
    events.sort_by_key(|e| (e.ts_nanos, e.tid));
    Timeline {
        events,
        dropped,
        threads,
    }
}

#[inline]
fn record(kind: TraceKind, cat: &'static str, name: &'static str, arg: u64) {
    let ts_nanos = epoch().elapsed().as_nanos() as u64;
    let c = collector();
    let session = c.session.load(Ordering::Relaxed);
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let stale = match slot.as_ref() {
            Some(ring) => ring.session != session,
            None => true,
        };
        if stale {
            let tid = c.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .unwrap_or("worker")
                .to_string();
            let ring = Arc::new(Ring::new(
                c.capacity.load(Ordering::Relaxed),
                tid,
                name,
                session,
            ));
            c.rings.lock().unwrap().push(ring.clone());
            *slot = Some(ring);
        }
        slot.as_ref().unwrap().push(RawEvent {
            ts_nanos,
            kind,
            cat,
            name,
            arg,
        });
    });
}

/// Records a point event (no duration) when tracing is enabled.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, arg: u64) {
    if enabled() {
        record(TraceKind::Instant, cat, name, arg);
    }
}

/// RAII guard for a span: created by [`span`]/[`span_arg`], records the
/// matching end event on drop. A disarmed (tracing-off) guard is inert.
#[must_use = "dropping the guard immediately closes the span"]
pub struct TraceSpan {
    cat: &'static str,
    name: &'static str,
    armed: bool,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.armed && enabled() {
            record(TraceKind::End, self.cat, self.name, 0);
        }
    }
}

/// Opens a span; it closes when the returned guard drops.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> TraceSpan {
    span_arg(cat, name, 0)
}

/// Opens a span carrying a numeric payload on its begin event.
#[inline]
pub fn span_arg(cat: &'static str, name: &'static str, arg: u64) -> TraceSpan {
    if !enabled() {
        return TraceSpan {
            cat,
            name,
            armed: false,
        };
    }
    record(TraceKind::Begin, cat, name, arg);
    TraceSpan {
        cat,
        name,
        armed: true,
    }
}

/// A drained session: merged events plus per-session bookkeeping.
#[derive(Debug)]
pub struct Timeline {
    /// All events, sorted by `(ts_nanos, tid)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings across all threads.
    pub dropped: u64,
    /// `(tid, thread name)` for every thread that recorded.
    pub threads: Vec<(u64, String)>,
}

impl Timeline {
    /// Validates that begin/end events nest LIFO per thread: every end
    /// matches the innermost open span and, when no events were dropped,
    /// every span is closed. Returns a description of the first violation.
    pub fn validate_nesting(&self) -> Result<(), String> {
        let mut stacks: std::collections::BTreeMap<u64, Vec<(&str, &str)>> =
            std::collections::BTreeMap::new();
        for e in &self.events {
            let stack = stacks.entry(e.tid).or_default();
            match e.kind {
                TraceKind::Begin => stack.push((e.cat, e.name)),
                TraceKind::End => match stack.pop() {
                    Some(top) if top == (e.cat, e.name) => {}
                    Some(top) => {
                        return Err(format!(
                            "tid {}: end {}:{} does not match open span {}:{}",
                            e.tid, e.cat, e.name, top.0, top.1
                        ))
                    }
                    None => {
                        return Err(format!(
                            "tid {}: end {}:{} with no open span",
                            e.tid, e.cat, e.name
                        ))
                    }
                },
                TraceKind::Instant => {}
            }
        }
        if self.dropped == 0 {
            for (tid, stack) in &stacks {
                if let Some((cat, name)) = stack.last() {
                    return Err(format!("tid {tid}: span {cat}:{name} never closed"));
                }
            }
        }
        Ok(())
    }

    /// Renders the timeline in the Chrome trace-event JSON format
    /// (`{"traceEvents": [...]}`), with microsecond timestamps, one
    /// Chrome `tid` per recording thread, and thread-name metadata
    /// events. Instants use thread scope (`"s": "t"`).
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::with_capacity(self.events.len() + self.threads.len());
        for (tid, name) in &self.threads {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".to_string())),
                ("ph", Json::Str("M".to_string())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(*tid as f64)),
                ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
            ]));
        }
        for e in &self.events {
            let ph = match e.kind {
                TraceKind::Begin => "B",
                TraceKind::End => "E",
                TraceKind::Instant => "i",
            };
            let mut fields = vec![
                ("name", Json::Str(e.name.to_string())),
                ("cat", Json::Str(e.cat.to_string())),
                ("ph", Json::Str(ph.to_string())),
                ("ts", Json::Num(e.ts_nanos as f64 / 1_000.0)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(e.tid as f64)),
            ];
            if e.kind == TraceKind::Instant {
                fields.push(("s", Json::Str("t".to_string())));
            }
            if e.arg != 0 || e.kind == TraceKind::Instant {
                fields.push(("args", Json::obj(vec![("arg", Json::Num(e.arg as f64))])));
            }
            events.push(Json::obj(fields));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            (
                "otherData",
                Json::obj(vec![
                    ("dropped", Json::Num(self.dropped as f64)),
                    ("threads", Json::Num(self.threads.len() as f64)),
                ]),
            ),
        ])
    }
}

/// Guard tying a recording session to `main`'s lifetime: created from the
/// `GF_TRACE` environment variable, writes the Chrome-trace JSON file on
/// drop. When `GF_TRACE` is unset the guard is inert and tracing stays
/// disabled (and free).
pub struct TraceSession {
    path: Option<std::path::PathBuf>,
}

impl TraceSession {
    /// Reads `GF_TRACE` (output path) and `GF_TRACE_CAP` (per-thread ring
    /// capacity, default [`DEFAULT_RING_CAPACITY`]); enables tracing when
    /// a non-empty path is set.
    pub fn from_env() -> TraceSession {
        let path = match std::env::var("GF_TRACE") {
            Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
            _ => return TraceSession { path: None },
        };
        let capacity = std::env::var("GF_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY);
        enable(capacity);
        TraceSession { path: Some(path) }
    }

    /// Whether this guard is actually recording.
    pub fn active(&self) -> bool {
        self.path.is_some()
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let timeline = disable_and_drain();
        if let Err(e) = timeline.validate_nesting() {
            eprintln!("trace: nesting check failed: {e}");
        }
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, timeline.to_chrome_json().render()) {
            Ok(()) => eprintln!(
                "trace: wrote {} events from {} threads ({} dropped) to {}",
                timeline.events.len(),
                timeline.threads.len(),
                timeline.dropped,
                path.display()
            ),
            Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; unit + property tests serialise.
    pub(super) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = test_lock();
        ENABLED.store(false, Ordering::SeqCst);
        instant("test", "noise", 1);
        let _span = span("test", "noise");
        enable(16);
        let tl = disable_and_drain();
        assert_eq!(tl.events.len(), 0);
        assert_eq!(tl.dropped, 0);
    }

    #[test]
    fn spans_and_instants_round_trip() {
        let _guard = test_lock();
        enable(64);
        {
            let _outer = span_arg("cat", "outer", 7);
            let _inner = span("cat", "inner");
            instant("cat", "tick", 3);
        }
        let tl = disable_and_drain();
        assert_eq!(tl.events.len(), 5);
        tl.validate_nesting().unwrap();
        let kinds: Vec<TraceKind> = tl.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Begin,
                TraceKind::Begin,
                TraceKind::Instant,
                TraceKind::End,
                TraceKind::End
            ]
        );
        assert_eq!(tl.events[0].name, "outer");
        assert_eq!(tl.events[0].arg, 7);
        assert_eq!(tl.events[3].name, "inner"); // LIFO close order
        let json = tl.to_chrome_json();
        let evs = json.get("traceEvents").unwrap().as_array().unwrap();
        // 5 events + 1 thread_name metadata record.
        assert_eq!(evs.len(), 6);
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(
            reparsed
                .get("otherData")
                .unwrap()
                .get("dropped")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }

    #[test]
    fn overflow_drops_and_counts() {
        let _guard = test_lock();
        enable(8);
        for i in 0..20 {
            instant("t", "e", i);
        }
        let tl = disable_and_drain();
        assert_eq!(tl.events.len(), 8);
        assert_eq!(tl.dropped, 12);
        // The *first* 8 events survive (drop-new, not overwrite-old).
        assert_eq!(tl.events[0].arg, 0);
        assert_eq!(tl.events[7].arg, 7);
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let tl = Timeline {
            events: vec![
                TraceEvent {
                    ts_nanos: 1,
                    kind: TraceKind::Begin,
                    cat: "a",
                    name: "x",
                    arg: 0,
                    tid: 0,
                },
                TraceEvent {
                    ts_nanos: 2,
                    kind: TraceKind::End,
                    cat: "a",
                    name: "y",
                    arg: 0,
                    tid: 0,
                },
            ],
            dropped: 0,
            threads: vec![(0, "t".to_string())],
        };
        assert!(tl.validate_nesting().is_err());
    }
}
