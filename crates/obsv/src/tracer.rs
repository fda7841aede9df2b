//! Hierarchical spans over a lock-sharded in-memory ring buffer.
//!
//! A span is a named interval on one thread with a parent link; together
//! they form the trace tree of a run (pipeline → job → phase → task).
//! Capture is off by default and costs **one atomic load per span** while
//! disabled: [`SpanGuard::enter`] checks the flag before touching the
//! clock, the name closure, or any shared state.
//!
//! Parent propagation is thread-local. Work handed to pool threads does
//! not inherit the submitting thread's span stack automatically; the
//! submitter captures [`current_span`] and the task closure re-installs
//! it with [`with_parent`], so task spans nest under the phase that
//! spawned them even though they run elsewhere.
//!
//! Completed spans are recorded at *close* time as one event carrying
//! `(start, duration)` — the chrome-tracing "X" (complete) shape — into
//! one of `SHARDS` ring buffers selected by thread, so concurrent
//! closers contend only rarely. Each ring overwrites its oldest events
//! when full; a trace of a long run keeps the most recent
//! `SHARDS * RING_CAP` spans.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of independent ring buffers (and the fan-out of close-time
/// contention).
const SHARDS: usize = 16;
/// Events kept per shard before the oldest are overwritten.
const RING_CAP: usize = 8192;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Close-order sequence number (monotone across threads).
    pub seq: u64,
    /// Unique span id (> 0).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Small dense id of the recording thread.
    pub tid: u64,
    /// Span category: `"pipeline"`, `"job"`, `"phase"`, `"task"`, ….
    pub cat: &'static str,
    /// Human-readable span name.
    pub name: String,
    /// Start time, nanoseconds since the capture epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A parent handle capturable on one thread and installable on another
/// (see [`with_parent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx(u64);

impl SpanCtx {
    /// The "no parent" context.
    pub const NONE: SpanCtx = SpanCtx(0);

    /// The raw span id, for transport through layers that cannot carry a
    /// `SpanCtx` (the executor's opaque chunk tags). 0 means "no parent".
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a context from a [`SpanCtx::raw`] value.
    pub fn from_raw(v: u64) -> SpanCtx {
        SpanCtx(v)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Ring {
    buf: Vec<SpanEvent>,
    /// Next write position once `buf` has reached `RING_CAP`.
    head: usize,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
        }
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < RING_CAP {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % RING_CAP;
        }
    }
}

static RINGS: [Mutex<Ring>; SHARDS] = [const { Mutex::new(Ring::new()) }; SHARDS];

thread_local! {
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Small dense thread id, assigned on first span close.
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != u64::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// Whether span capture is currently on.
#[inline]
pub fn capture_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span capture on (idempotent). Pins the epoch on first call.
pub fn enable_capture() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span capture off. Already-open spans on other threads record on
/// close only if capture is re-enabled before they finish.
pub fn disable_capture() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discards all buffered events.
pub fn clear_events() {
    for ring in &RINGS {
        let mut r = ring.lock().unwrap();
        r.buf.clear();
        r.head = 0;
    }
}

/// Snapshots every buffered event, ordered by `(start_ns, seq)`.
pub fn drain_events() -> Vec<SpanEvent> {
    let mut out = Vec::new();
    for ring in &RINGS {
        out.extend(ring.lock().unwrap().buf.iter().cloned());
    }
    out.sort_by_key(|e| (e.start_ns, e.seq));
    out
}

/// The innermost open span of the calling thread, as a transferable
/// parent handle.
#[inline]
pub fn current_span() -> SpanCtx {
    if !capture_enabled() {
        return SpanCtx::NONE;
    }
    SpanCtx(CURRENT.with(Cell::get))
}

/// Runs `f` with `ctx` installed as the thread's current span, restoring
/// the previous one afterwards. This is how spans cross thread-pool
/// boundaries: capture [`current_span`] before submitting, wrap the task
/// body in `with_parent`.
pub fn with_parent<R>(ctx: SpanCtx, f: impl FnOnce() -> R) -> R {
    if !capture_enabled() {
        return f();
    }
    let prev = CURRENT.with(|c| c.replace(ctx.0));
    // Restore on unwind too, so a panicking task doesn't corrupt the
    // worker thread's span stack for the next job.
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// RAII guard for one open span; records the event and restores the
/// parent when dropped (including on unwind, so panicking spans still
/// close).
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    cat: &'static str,
    name: String,
    start: Instant,
}

impl SpanGuard {
    /// Opens a span. When capture is disabled this is a single atomic
    /// load; `name` is never invoked.
    #[inline]
    pub fn enter(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
        if !capture_enabled() {
            return SpanGuard { open: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            open: Some(OpenSpan {
                id,
                parent,
                cat,
                name: name(),
                start: Instant::now(),
            }),
        }
    }

    /// The guard's context, for parenting work on other threads.
    pub fn ctx(&self) -> SpanCtx {
        self.open.as_ref().map_or(SpanCtx::NONE, |o| SpanCtx(o.id))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let dur = open.start.elapsed();
        CURRENT.with(|c| c.set(open.parent));
        record(open, dur);
    }
}

fn record(open: OpenSpan, dur: Duration) {
    let tid = thread_id();
    let ev = SpanEvent {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        id: open.id,
        parent: open.parent,
        tid,
        cat: open.cat,
        name: open.name,
        start_ns: open.start.duration_since(epoch()).as_nanos() as u64,
        dur_ns: dur.as_nanos() as u64,
    };
    RINGS[tid as usize % SHARDS].lock().unwrap().push(ev);
}

/// Records an externally-timed span that closed "now": the start is
/// back-dated by `dur_ns` and the event is parented under `parent`
/// directly, bypassing the thread-local stack. Used by the executor's
/// chunk observer, which measures chunk run time itself and learns its
/// logical parent from the submit-time tag. No-op (and `name` is never
/// invoked) while capture is off.
pub fn record_external(
    cat: &'static str,
    name: impl FnOnce() -> String,
    parent: SpanCtx,
    dur_ns: u64,
) {
    if !capture_enabled() {
        return;
    }
    let now_ns = epoch().elapsed().as_nanos() as u64;
    let tid = thread_id();
    let ev = SpanEvent {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: parent.0,
        tid,
        cat,
        name: name(),
        start_ns: now_ns.saturating_sub(dur_ns),
        dur_ns,
    };
    RINGS[tid as usize % SHARDS].lock().unwrap().push(ev);
}

/// Times `f` unconditionally and records a span for it when capture is
/// on, returning the result and the measured duration.
///
/// This is the bridge between tracing and always-on metrics: phase
/// durations (e.g. the mapreduce engine's `map_time`) are *derived from
/// the span layer's measurement* instead of a second clock, but remain
/// available with capture off. Costs two clock reads when disabled.
pub fn timed_span<R>(
    cat: &'static str,
    name: impl FnOnce() -> String,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    if !capture_enabled() {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed());
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let open = OpenSpan {
        id,
        parent,
        cat,
        name: name(),
        start: Instant::now(),
    };
    // Close the span even if `f` unwinds.
    struct Closer(Option<OpenSpan>);
    impl Drop for Closer {
        fn drop(&mut self) {
            if let Some(open) = self.0.take() {
                let dur = open.start.elapsed();
                CURRENT.with(|c| c.set(open.parent));
                record(open, dur);
            }
        }
    }
    let mut closer = Closer(Some(open));
    let r = f();
    let open = closer.0.take().expect("span still open");
    let dur = open.start.elapsed();
    CURRENT.with(|c| c.set(open.parent));
    record(open, dur);
    (r, dur)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Capture-toggling tests live in the crate's integration-test
    // binaries (one process each); in-process unit tests here only cover
    // state that is safe under the disabled default.

    #[test]
    fn disabled_guard_is_inert() {
        assert!(!capture_enabled());
        let g = SpanGuard::enter("test", || unreachable!("name must stay lazy"));
        assert_eq!(g.ctx(), SpanCtx::NONE);
        assert_eq!(current_span(), SpanCtx::NONE);
    }

    #[test]
    fn disabled_timed_span_still_times() {
        let ((), d) = timed_span(
            "test",
            || unreachable!("name must stay lazy"),
            || std::thread::sleep(Duration::from_millis(2)),
        );
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = Ring::new();
        for i in 0..(RING_CAP + 10) as u64 {
            r.push(SpanEvent {
                seq: i,
                id: i + 1,
                parent: 0,
                tid: 0,
                cat: "t",
                name: String::new(),
                start_ns: i,
                dur_ns: 1,
            });
        }
        assert_eq!(r.buf.len(), RING_CAP);
        let min_seq = r.buf.iter().map(|e| e.seq).min().unwrap();
        assert_eq!(min_seq, 10, "the 10 oldest events were overwritten");
    }
}
