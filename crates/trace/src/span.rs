//! Spans: monotonic-timed stage intervals with parent links, recorded
//! into per-thread ring buffers under a configurable sampling policy.
//!
//! A span is opened with [`span`] (or [`span_under`] when the parent
//! lives on another thread, as in a rayon fan-out) and records itself
//! when its [`SpanGuard`] drops. Records carry a static stage label, the
//! parent span id, and start/duration in nanoseconds relative to the
//! process-wide trace epoch, so a full trace tree can be rebuilt from
//! the flat record stream.
//!
//! The sampling decision is made once per *root* span and inherited by
//! every descendant, so trace trees are always complete: either the
//! whole tree of a request is recorded or none of it. With
//! [`Sampling::Off`] (the default) opening a span costs a single relaxed
//! atomic load and no allocation, which is what lets the instrumentation
//! stay compiled into the hot paths permanently.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::registry::record_stage_duration;

/// How root spans are chosen for recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Record every trace tree.
    Always,
    /// Record one trace tree out of every `n` roots (per thread). `OneIn(1)`
    /// is equivalent to [`Sampling::Always`]; `OneIn(0)` is normalised to it.
    OneIn(u32),
    /// Record nothing. Span creation reduces to one relaxed atomic load.
    Off,
}

const MODE_OFF: u8 = 0;
const MODE_ALWAYS: u8 = 1;
const MODE_ONE_IN: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(MODE_OFF);
static ONE_IN: AtomicU32 = AtomicU32::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Capacity, in records, of each thread's ring buffer. When a thread
/// records more spans than this between drains, the oldest records are
/// evicted (and counted by [`dropped_records`]).
pub const RING_CAPACITY: usize = 1 << 16;

/// The process-wide instant all span timestamps are relative to.
/// Initialised on first use; stable for the life of the process.
pub fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    // `duration_since` saturates to zero for instants before the epoch
    // (possible when an interval started before the first span was opened).
    t.duration_since(trace_epoch())
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// Installs the global sampling policy. Takes effect for root spans
/// opened after the call; spans already open keep their decision.
pub fn set_sampling(sampling: Sampling) {
    match sampling {
        Sampling::Off => MODE.store(MODE_OFF, Ordering::Relaxed),
        Sampling::Always => MODE.store(MODE_ALWAYS, Ordering::Relaxed),
        Sampling::OneIn(0) | Sampling::OneIn(1) => MODE.store(MODE_ALWAYS, Ordering::Relaxed),
        Sampling::OneIn(n) => {
            ONE_IN.store(n, Ordering::Relaxed);
            MODE.store(MODE_ONE_IN, Ordering::Relaxed);
        }
    }
}

/// The sampling policy currently in force.
pub fn sampling() -> Sampling {
    match MODE.load(Ordering::Relaxed) {
        MODE_ALWAYS => Sampling::Always,
        MODE_ONE_IN => Sampling::OneIn(ONE_IN.load(Ordering::Relaxed)),
        _ => Sampling::Off,
    }
}

/// Whether any tracing is active. This is the one-atomic-load fast path
/// instrumented code gates optional bookkeeping on.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != MODE_OFF
}

/// Configures sampling from the `RBC_TRACE` environment variable:
/// `1`/`on`/`always` enables full tracing, `0`/`off` disables it, and an
/// integer `n >= 2` samples one trace in `n`. Unset or unparsable values
/// leave the current policy untouched. Returns the policy now in force.
pub fn init_from_env() -> Sampling {
    if let Ok(raw) = std::env::var("RBC_TRACE") {
        match raw.trim() {
            "0" | "off" | "OFF" => set_sampling(Sampling::Off),
            "1" | "on" | "always" | "ON" => set_sampling(Sampling::Always),
            other => {
                if let Ok(n) = other.parse::<u32>() {
                    if n >= 2 {
                        set_sampling(Sampling::OneIn(n));
                    }
                }
            }
        }
    }
    sampling()
}

/// One completed (or retroactively recorded) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id of this span within the process.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static stage label, e.g. `"serve.batch"` (see `docs/OBSERVABILITY.md`
    /// for the taxonomy).
    pub label: &'static str,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Start time, nanoseconds since [`trace_epoch`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanRecord {
    /// The span's duration as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.dur_ns)
    }
}

/// A span's identity plus its sampling decision — the handle to capture
/// *before* a parallel fan-out and pass to [`span_under`] so work on
/// other threads attaches to the right trace tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCtx {
    /// Id of the span.
    pub id: u64,
    /// Whether the span's trace tree is being recorded.
    pub sampled: bool,
}

struct Ring {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, record: SpanRecord) {
        if self.records.len() >= RING_CAPACITY {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

fn all_rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// (span id, sampled) stack of spans open on this thread.
    static STACK: RefCell<Vec<(u64, bool)>> = const { RefCell::new(Vec::new()) };
    /// This thread's ring buffer + dense thread id, created on first record.
    static LOCAL: RefCell<Option<(Arc<Mutex<Ring>>, u64)>> = const { RefCell::new(None) };
    /// Root counter for `Sampling::OneIn` decisions.
    static ROOT_TICK: RefCell<u32> = const { RefCell::new(0) };
}

fn local_ring() -> (Arc<Mutex<Ring>>, u64) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some((ring, thread)) = slot.as_ref() {
            return (Arc::clone(ring), *thread);
        }
        let ring = Arc::new(Mutex::new(Ring {
            records: VecDeque::new(),
            dropped: 0,
        }));
        let thread = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        all_rings()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Arc::clone(&ring));
        *slot = Some((Arc::clone(&ring), thread));
        (ring, thread)
    })
}

fn push_record(record: SpanRecord) {
    record_stage_duration(record.label, Duration::from_nanos(record.dur_ns));
    let (ring, _) = local_ring();
    ring.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(record);
}

fn decide_root() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_ALWAYS => true,
        MODE_ONE_IN => {
            let n = ONE_IN.load(Ordering::Relaxed).max(1);
            ROOT_TICK.with(|tick| {
                let mut tick = tick.borrow_mut();
                let fire = *tick == 0;
                *tick = (*tick + 1) % n;
                fire
            })
        }
        _ => false,
    }
}

/// The innermost span open on the current thread, if any.
pub fn current() -> Option<SpanCtx> {
    if !enabled() {
        return None;
    }
    STACK.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|&(id, sampled)| SpanCtx { id, sampled })
    })
}

/// Opens a span under the innermost span on this thread (or as a new
/// root). Returns a guard that records the span when dropped.
pub fn span(label: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    let (parent, sampled) = match current() {
        Some(ctx) => (Some(ctx.id), ctx.sampled),
        None => (None, decide_root()),
    };
    open(label, parent, sampled)
}

/// Opens a span under an explicit parent context — the cross-thread
/// variant used inside parallel fan-outs, where the parent span lives on
/// the dispatching thread. With `parent == None` this behaves exactly
/// like [`span`].
pub fn span_under(label: &'static str, parent: Option<SpanCtx>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    match parent {
        Some(ctx) => open(label, Some(ctx.id), ctx.sampled),
        None => span(label),
    }
}

fn open(label: &'static str, parent: Option<u64>, sampled: bool) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|stack| stack.borrow_mut().push((id, sampled)));
    SpanGuard {
        data: Some(SpanData {
            id,
            parent,
            label,
            sampled,
            start: Instant::now(),
        }),
    }
}

/// Retroactively records an interval that was *not* wrapped in a guard —
/// e.g. a request's queue wait, whose start predates the batch that
/// serves it. The interval inherits the parent's sampling decision; with
/// no parent it is recorded whenever tracing is enabled. Returns the id
/// of the recorded span, if one was recorded.
pub fn record_interval(
    label: &'static str,
    parent: Option<SpanCtx>,
    start: Instant,
    end: Instant,
) -> Option<u64> {
    if !enabled() {
        return None;
    }
    if let Some(ctx) = parent {
        if !ctx.sampled {
            return None;
        }
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (_, thread) = local_ring();
    push_record(SpanRecord {
        id,
        parent: parent.map(|ctx| ctx.id),
        label,
        thread,
        start_ns: ns_since_epoch(start),
        dur_ns: end
            .saturating_duration_since(start)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64,
    });
    Some(id)
}

/// Guard for an open span; records the span when dropped.
#[must_use = "a span measures the scope of its guard"]
#[derive(Debug)]
pub struct SpanGuard {
    data: Option<SpanData>,
}

#[derive(Debug)]
struct SpanData {
    id: u64,
    parent: Option<u64>,
    label: &'static str,
    sampled: bool,
    start: Instant,
}

impl SpanGuard {
    /// This span's context, for parenting work dispatched to other
    /// threads. `None` when tracing is off.
    pub fn ctx(&self) -> Option<SpanCtx> {
        self.data.as_ref().map(|d| SpanCtx {
            id: d.id,
            sampled: d.sampled,
        })
    }

    /// Closes the span without recording it — for a span opened before its
    /// opener learned that the work runs elsewhere, under a span of its own.
    pub fn discard(mut self) {
        if let Some(data) = self.data.take() {
            pop(data.id);
        }
    }
}

/// Pops span `id` from the thread's stack. Guards usually drop in LIFO
/// order, but a caller may hold sibling spans open together and close them
/// in another order (the cluster's pipelined fan-out closes its per-node
/// spans in contact order), so search from the top rather than assume.
fn pop(id: u64) {
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&(open, _)| open == id) {
            stack.remove(pos);
        }
    });
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        pop(data.id);
        if !data.sampled {
            return;
        }
        let end = Instant::now();
        let (_, thread) = local_ring();
        push_record(SpanRecord {
            id: data.id,
            parent: data.parent,
            label: data.label,
            thread,
            start_ns: ns_since_epoch(data.start),
            dur_ns: end
                .saturating_duration_since(data.start)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
        });
    }
}

/// Evictions counted by rings that [`drain`] has since unlisted, so
/// [`dropped_records`] never goes backwards. Changes only under the
/// `all_rings` lock.
static RETIRED_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Drains every thread's ring buffer into one stream, ordered by start
/// time. Records of spans still open stay pending until their guards
/// drop. A ring whose thread has exited is emptied one last time and
/// unlisted, so the registry stays as large as the set of live recording
/// threads rather than growing with every thread that ever recorded.
pub fn drain() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    all_rings()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .retain(|ring| {
            // The owning thread's `LOCAL` slot holds the only other
            // reference. Looked at *before* emptying: once it is gone no
            // record can follow the ones taken below.
            let orphaned = Arc::strong_count(ring) == 1;
            let mut ring = ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.extend(ring.records.drain(..));
            if orphaned {
                RETIRED_DROPPED.fetch_add(ring.dropped, Ordering::Relaxed);
            }
            !orphaned
        });
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// Discards all buffered records.
pub fn clear() {
    drop(drain());
}

/// Total records evicted from full ring buffers since process start — a
/// non-zero value means [`drain`] is being called too rarely for the
/// span volume.
pub fn dropped_records() -> u64 {
    let rings = all_rings()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let listed: u64 = rings
        .iter()
        .map(|ring| {
            ring.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .dropped
        })
        .sum();
    listed + RETIRED_DROPPED.load(Ordering::Relaxed)
}

/// Rings currently listed (test hook for the registry's size).
#[cfg(test)]
pub(crate) fn listed_rings() -> usize {
    all_rings()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len()
}
