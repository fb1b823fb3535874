//! First-party telemetry for the LC reproduction: span tracing, metrics,
//! and trace export. Zero external dependencies (`lc-json` is the only
//! workspace dependency, used by the exporters).
//!
//! # Design
//!
//! The paper's contribution is a *measurement*, so the reproduction must
//! be able to attribute time at the same granularity the paper does:
//! per component, per stage, per chunk. This crate provides:
//!
//! * **Spans** — [`span!`] / [`span_in!`] open an RAII guard that records
//!   a `(name, category, start, duration, thread, args)` event when
//!   dropped. Events land in a *thread-local* buffer and are pushed in
//!   batches onto a global lock-free sink (a Treiber stack of batches),
//!   so concurrent pool workers never contend on a lock on the hot path.
//! * **Counters and histograms** — monotonic [`Counter`]s and fixed
//!   64-bucket power-of-two [`Histogram`]s with p50/p90/p99 summaries.
//!   All updates are relaxed atomics.
//! * **Exporters** — [`export::chrome_trace`] (loadable in Perfetto /
//!   `chrome://tracing`), [`export::events_jsonl`] (one JSON object per
//!   line, via `lc-json`), and [`export::metrics_value`] (counter +
//!   histogram snapshot).
//!
//! # Collection modes
//!
//! Telemetry is **off** by default; every instrumentation site reduces
//! to one relaxed atomic load of a mode bitmask when nothing is
//! collecting. Three independent consumers can be switched on:
//!
//! * **Sink** ([`enable`]) — spans become [`Event`]s in the unbounded
//!   trace sink, drainable by [`drain`] for export. Memory grows with
//!   event count, so this is for bounded runs (CLI invocations,
//!   campaigns, tests), not long-running servers.
//! * **Metrics** ([`enable_metrics`], implied by [`enable`]) —
//!   counters, gauges and histograms record. Fixed memory per metric,
//!   safe to leave on forever; `lc serve` runs with metrics on.
//! * **Flight recorder** ([`flight::arm`]) — spans and notes land in
//!   fixed-capacity per-thread ring buffers that can be dumped as a
//!   JSONL "black box" at any moment, including from a panic hook. See
//!   [`flight`].
//!
//! The [`span!`] macros do not evaluate their argument expressions when
//! every consumer is off, so the disabled path costs one relaxed load
//! per instrumented site.
//!
//! # Request scoping
//!
//! A thread can carry a current *request id* ([`request_scope`]); while
//! set, every span the thread opens gets a `req` argument, so a trace
//! export can reconstruct the critical path of one request across
//! threads. `lc-parallel`'s pool propagates the submitting thread's
//! request id into its workers.
//!
//! # Clock
//!
//! Timestamps are nanoseconds since the first telemetry call in the
//! process, taken from [`Instant`] (monotonic): wall-clock steps cannot
//! produce negative durations or reorder spans.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod export;
pub mod flight;
pub mod metrics;

pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram, HistogramSummary};

/// Mode bitmask: which telemetry consumers are live. All hot-path
/// instrumentation reduces to one relaxed load of this byte when
/// everything is off.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Spans flow into the unbounded drainable event sink.
const MODE_SINK: u8 = 1;
/// Counters/gauges/histograms record.
const MODE_METRICS: u8 = 2;
/// The flight recorder is armed (see [`flight`]).
const MODE_FLIGHT: u8 = 4;

/// Turn full telemetry collection on: the event sink and metrics.
pub fn enable() {
    STATE.fetch_or(MODE_SINK | MODE_METRICS, Ordering::Relaxed);
}

/// Turn on metrics only (counters, gauges, histograms). Fixed memory
/// per metric — safe for long-running processes where the unbounded
/// event sink of [`enable`] would grow without limit.
pub fn enable_metrics() {
    STATE.fetch_or(MODE_METRICS, Ordering::Relaxed);
}

/// Turn the sink and metrics off (events already buffered stay
/// drainable; an armed flight recorder stays armed).
pub fn disable() {
    STATE.fetch_and(!(MODE_SINK | MODE_METRICS), Ordering::Relaxed);
}

/// Whether the event sink is collecting. One relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) & MODE_SINK != 0
}

/// Whether metrics are recording. One relaxed atomic load.
#[inline(always)]
pub(crate) fn metrics_on() -> bool {
    STATE.load(Ordering::Relaxed) & MODE_METRICS != 0
}

/// Whether *any* consumer (sink, metrics, flight recorder) is live —
/// the gate instrumentation sites use to decide whether to open spans.
#[inline(always)]
pub fn active() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

pub(crate) fn set_flight(on: bool) {
    if on {
        STATE.fetch_or(MODE_FLIGHT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!MODE_FLIGHT, Ordering::Relaxed);
    }
}

pub(crate) fn flight_bit() -> bool {
    STATE.load(Ordering::Relaxed) & MODE_FLIGHT != 0
}

/// Monotonic epoch shared by every event in the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process telemetry epoch (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Request scoping: a per-thread current request id, attached to spans.
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's current request id (0 = none).
#[inline]
pub fn current_request() -> u64 {
    CURRENT_REQ.with(|c| c.get())
}

/// RAII guard restoring the previous request id on drop.
pub struct RequestScope {
    prev: u64,
}

/// Mark the calling thread as working on request `req` until the
/// returned guard drops. While set, every span opened on this thread
/// carries a `req` argument and flight-recorder records are tagged with
/// it, so an export can be filtered down to one request's critical
/// path. Scopes nest; `req = 0` clears the tag for the guard's extent.
#[must_use = "the request scope ends when the guard drops"]
pub fn request_scope(req: u64) -> RequestScope {
    let prev = CURRENT_REQ.with(|c| c.replace(req));
    RequestScope { prev }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQ.with(|c| c.set(self.prev));
    }
}

/// A span/event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (owned; use for dynamic values like file names).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl ArgValue {
    /// Convert to an `lc-json` value for the exporters.
    pub fn to_json(&self) -> lc_json::Value {
        match self {
            ArgValue::U64(v) => lc_json::Value::from(*v),
            ArgValue::F64(v) => lc_json::Value::from(*v),
            ArgValue::Bool(v) => lc_json::Value::from(*v),
            ArgValue::Str(v) => lc_json::Value::from(v.as_str()),
        }
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span name (component name, operation, …). `&'static` by design:
    /// names come from code, values go in `args`.
    pub name: &'static str,
    /// Category, used by trace viewers to group/filter rows.
    pub cat: &'static str,
    /// Start, nanoseconds since the process telemetry epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Telemetry thread id (dense, assigned on first use per thread).
    pub tid: u64,
    /// Key/value payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

// ---------------------------------------------------------------------------
// Sink: thread-local buffers draining into a global lock-free batch stack.
// ---------------------------------------------------------------------------

/// Events held locally before a batch push (amortizes sink traffic).
const FLUSH_AT: usize = 256;

struct Node {
    batch: Vec<Event>,
    next: *mut Node,
}

/// Head of the Treiber stack of flushed batches.
static SINK: AtomicPtr<Node> = AtomicPtr::new(std::ptr::null_mut());

/// Lock-free push of one batch onto the global sink.
fn push_batch(batch: Vec<Event>) {
    if batch.is_empty() {
        return;
    }
    let node = Box::into_raw(Box::new(Node {
        batch,
        next: std::ptr::null_mut(),
    }));
    let mut head = SINK.load(Ordering::Relaxed);
    loop {
        // SAFETY: `node` was just allocated by us and is not yet shared.
        unsafe { (*node).next = head };
        match SINK.compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return,
            Err(cur) => head = cur,
        }
    }
}

/// Detach the whole stack and free its nodes, returning the events.
fn take_batches() -> Vec<Event> {
    let mut head = SINK.swap(std::ptr::null_mut(), Ordering::Acquire);
    let mut out = Vec::new();
    while !head.is_null() {
        // SAFETY: the swap above made this list exclusively ours; each
        // node was created by `Box::into_raw` in `push_batch`.
        let node = unsafe { Box::from_raw(head) };
        out.extend(node.batch);
        head = node.next;
    }
    out
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Per-thread event buffer; `Drop` flushes so scoped pool workers hand
/// their events to the sink when `std::thread::scope` joins them.
struct LocalBuf {
    tid: u64,
    events: Vec<Event>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        push_batch(std::mem::take(&mut self.events));
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::new(),
    });
}

/// The calling thread's telemetry thread id.
pub fn thread_id() -> u64 {
    LOCAL.with(|l| l.borrow().tid)
}

/// Record one completed event into the calling thread's buffer.
pub fn record(mut event: Event) {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        event.tid = buf.tid;
        buf.events.push(event);
        if buf.events.len() >= FLUSH_AT {
            let batch = std::mem::take(&mut buf.events);
            push_batch(batch);
        }
    });
}

/// Push the calling thread's buffered events to the global sink now.
///
/// Worker threads should call this before their closure returns. The
/// thread-local buffer also flushes via its `Drop`, but TLS destructors
/// run *after* `std::thread::scope` observes the closure finished, so a
/// scope-joining thread that drains immediately could otherwise race
/// with the flush. `lc-parallel`'s pool workers call this at loop exit.
pub fn flush_thread() {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        let batch = std::mem::take(&mut buf.events);
        push_batch(batch);
    });
}

/// Drain every buffered event: the calling thread's local buffer plus all
/// batches worker threads flushed to the sink, sorted by start timestamp.
///
/// Threads still actively recording keep their partial local buffers;
/// call this after parallel sections have joined (pool workers flush
/// with [`flush_thread`] before exiting).
pub fn drain() -> Vec<Event> {
    flush_thread();
    let mut events = take_batches();
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    events
}

/// Discard all buffered events and zero all metrics. Intended for tests
/// and A/B benches that need a clean slate.
pub fn reset() {
    let _ = drain();
    metrics::reset();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII span guard: records an [`Event`] with the span's duration when
/// dropped. A disabled guard is inert and costs nothing beyond its
/// construction branch.
pub struct Span(Option<SpanData>);

struct SpanData {
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
    hist: bool,
}

impl Span {
    /// Open a live span. Prefer the [`span!`]/[`span_in!`] macros, which
    /// skip argument evaluation when telemetry is disabled.
    ///
    /// If the calling thread is inside a [`request_scope`], the span
    /// automatically carries a `req` argument with the request id.
    pub fn begin(
        cat: &'static str,
        name: &'static str,
        mut args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        let req = current_request();
        if req != 0 {
            args.push(("req", ArgValue::U64(req)));
        }
        Span(Some(SpanData {
            name,
            cat,
            start_ns: now_ns(),
            args,
            hist: false,
        }))
    }

    /// An inert span (telemetry disabled).
    #[inline(always)]
    pub fn disabled() -> Span {
        Span(None)
    }

    /// Attach an argument after the span was opened (e.g. an outcome only
    /// known at the end of the spanned region). No-op when disabled.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(d) = &mut self.0 {
            d.args.push((key, value.into()));
        }
    }

    /// Also record this span's duration into the histogram
    /// `"<cat>.ns/<name>"` on drop. No-op when disabled.
    pub fn with_histogram(&mut self) {
        if let Some(d) = &mut self.0 {
            d.hist = true;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.0.take() {
            let dur_ns = now_ns().saturating_sub(d.start_ns);
            if d.hist && metrics_on() {
                metrics::histogram(&format!("{}.ns/{}", d.cat, d.name)).record(dur_ns);
            }
            emit(Event {
                name: d.name,
                cat: d.cat,
                ts_ns: d.start_ns,
                dur_ns,
                tid: 0, // filled by `record`
                args: d.args,
            });
        }
    }
}

/// Route one completed event to every live event consumer: the flight
/// recorder when armed, the drainable sink when [`enabled`]. Span drops
/// funnel through here; instrumentation that hand-builds [`Event`]s
/// (e.g. the pool's per-worker summaries) should too, so flight dumps
/// see them.
pub fn emit(event: Event) {
    if flight::armed() {
        flight::record_event(&event);
    }
    if enabled() {
        record(event);
    }
}

/// Open a span in an explicit category:
/// `span_in!("stage.encode", component_name, chunk = i, applied = true)`.
///
/// Argument expressions are **not** evaluated when telemetry is disabled;
/// the whole macro is one relaxed atomic load in that case. The span is
/// live when *any* consumer is on (sink, metrics, flight recorder); its
/// event is routed to whichever consumers are live at drop.
#[macro_export]
macro_rules! span_in {
    ($cat:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::active() {
            $crate::Span::begin(
                $cat,
                $name,
                vec![$((stringify!($key), $crate::ArgValue::from($val))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Open a span in the default `"lc"` category:
/// `span!("archive.encode", bytes = input.len())`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $crate::span_in!("lc", $name $(, $key = $val)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Telemetry state is process-global; serialize the tests that touch it.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = locked();
        reset();
        disable();
        {
            let _s = span!("nothing", x = 1u64);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn span_records_name_cat_args_and_duration() {
        let _g = locked();
        reset();
        enable();
        {
            let mut s = span_in!("cat.test", "op", a = 7u64, flag = true);
            s.arg("late", "yes");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        let events = drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "op");
        assert_eq!(e.cat, "cat.test");
        assert!(e.dur_ns >= 1_000_000, "dur {} ns", e.dur_ns);
        assert_eq!(e.args[0], ("a", ArgValue::U64(7)));
        assert_eq!(e.args[1], ("flag", ArgValue::Bool(true)));
        assert_eq!(e.args[2], ("late", ArgValue::Str("yes".into())));
    }

    #[test]
    fn events_from_joined_threads_are_drained_and_sorted() {
        let _g = locked();
        reset();
        enable();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..100u64 {
                        let _sp = span!("worker_op", t = t, i = i);
                    }
                    flush_thread();
                });
            }
        });
        disable();
        let events = drain();
        assert_eq!(events.len(), 400);
        assert!(
            events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "sorted by ts"
        );
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "one tid per worker thread");
    }

    #[test]
    fn buffer_overflow_flushes_mid_thread() {
        let _g = locked();
        reset();
        enable();
        for i in 0..(FLUSH_AT * 2 + 10) {
            let _sp = span!("burst", i = i);
        }
        disable();
        assert_eq!(drain().len(), FLUSH_AT * 2 + 10);
    }

    #[test]
    fn with_histogram_feeds_duration_histogram() {
        let _g = locked();
        reset();
        enable();
        {
            let mut s = span_in!("ht", "timed");
            s.with_histogram();
        }
        disable();
        let _ = drain();
        let summary = metrics::histogram("ht.ns/timed").summary();
        assert_eq!(summary.count, 1);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
