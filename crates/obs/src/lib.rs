//! Flow-wide observability: phase spans, a metrics registry, and
//! machine-readable run reports.
//!
//! The central type is [`Recorder`]. A recorder is either *enabled* (it owns a
//! shared, thread-safe collector) or *disabled* (every call is a no-op), so
//! instrumented code can unconditionally record without branching and callers
//! that do not care pay nothing:
//!
//! ```
//! use mcfpga_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let _flow = rec.span("flow");
//!     {
//!         let _route = rec.span("route"); // nested: path is "flow/route"
//!         rec.incr("route.iterations", 3);
//!     }
//!     rec.observe("rcm.ses_per_column", 2.0);
//!     rec.set_gauge("anneal.temperature", 0.5);
//! }
//! let report = rec.report("demo");
//! assert_eq!(report.spans.len(), 2);
//! assert_eq!(report.counters[0].value, 3);
//! let json = serde_json::to_string_pretty(&report).unwrap();
//! assert!(json.contains("flow/route"));
//! ```
//!
//! Spans nest lexically per thread: the span path is the `/`-joined chain of
//! enclosing spans opened on the same thread. Counters, gauges, and histograms
//! are keyed by dotted names (`route.overused_edges`, `place.moves_accepted`)
//! and may be updated concurrently from any thread holding a clone of the
//! recorder.
//!
//! Alongside the aggregates, an enabled recorder buffers structured
//! [`TraceEvent`]s — instants via [`Recorder::instant`] and begin/end pairs
//! via [`Recorder::begin`] — in a bounded ring (see the [`trace`] module
//! docs), and [`Recorder::chrome_trace_json`] exports spans and events
//! together in Chrome/Perfetto trace-event format.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

pub mod correlate;
pub mod histogram;
pub mod trace;
pub mod waveform;

pub use correlate::{job_ids, job_trace, JobSpan, JobTrace};
pub use histogram::LogHistogram;
pub use trace::{
    current_thread_id, ReconfigTelemetry, SwitchTelemetry, TraceEvent, TracePhase, TraceValue,
};
pub use waveform::{WaveSignal, Waveform};

/// Default bound on buffered trace events; older events are evicted first.
/// Override with [`Recorder::enabled_with_capacity`].
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One completed span: where in the hierarchy it sat and when it ran,
/// as microsecond offsets from the recorder's creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// `/`-joined path of enclosing spans, e.g. `"flow/place"`.
    pub path: String,
    /// Leaf name, e.g. `"place"`.
    pub name: String,
    /// Start offset from recorder creation, in microseconds.
    pub start_us: u64,
    /// Wall-clock duration, in microseconds.
    pub duration_us: u64,
    /// Sequential id of the thread the span ran on (see [`current_thread_id`]).
    pub tid: u64,
}

/// A named monotonic counter in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub value: u64,
}

/// A named last-write-wins gauge in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    pub name: String,
    pub value: f64,
}

/// Summary statistics of one histogram's samples.
///
/// Count, min, max, and mean are exact; the percentiles come from the
/// fixed-size [`LogHistogram`] buckets, accurate to within ~1% relative
/// error (see the [`histogram`] module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramEntry {
    pub name: String,
    pub count: usize,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
}

/// Machine-readable snapshot of everything a [`Recorder`] collected.
///
/// Serializes to JSON via the workspace `serde_json`; this is the payload
/// written to `BENCH_flow.json` by the benchmark driver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Caller-chosen label for the run (e.g. the experiment id).
    pub name: String,
    /// Microseconds from recorder creation to report time.
    pub total_us: u64,
    pub spans: Vec<SpanRecord>,
    pub counters: Vec<CounterEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub histograms: Vec<HistogramEntry>,
    /// Per-context-switch reconfiguration summary, when the run traced any
    /// context switches (attached by the flow driver; `None` otherwise).
    pub reconfig: Option<ReconfigTelemetry>,
}

impl RunReport {
    /// Busy time of the spans whose leaf name is `name`: the sum of their
    /// durations, in microseconds. Spans that ran concurrently on different
    /// threads each count in full, so this can exceed the wall time.
    pub fn span_busy_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us)
            .sum()
    }

    /// Wall time of the spans whose leaf name is `name`: the length of the
    /// union of their intervals, in microseconds. Time during which several
    /// of them ran at once counts once, so this never exceeds
    /// [`RunReport::span_busy_us`].
    pub fn span_wall_us(&self, name: &str) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.start_us, s.start_us + s.duration_us))
            .collect();
        intervals.sort_unstable();
        let (mut wall, mut covered_to) = (0, 0);
        for (start, end) in intervals {
            let start = start.max(covered_to);
            if end > start {
                wall += end - start;
                covered_to = end;
            }
        }
        wall
    }

    /// Value of the counter `name`, or 0 if it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Value of the gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram summary for `name`, if any samples were observed.
    pub fn histogram(&self, name: &str) -> Option<&HistogramEntry> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    // Bounded log-bucketed storage: memory is O(histogram names), not
    // O(samples), so a long-running server cannot grow without bound.
    histograms: Mutex<BTreeMap<String, LogHistogram>>,
    events: Mutex<trace::TraceRing>,
}

/// The value `name` keys in `map`, created at its default first. The key is
/// looked up by `&str`, so its `String` is allocated only on first insert,
/// not on every counter, gauge or histogram update.
fn entry<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Request-scoped correlation a [`Recorder::correlated`] handle stamps onto
/// every trace event it emits.
struct Correlation {
    job: u64,
    tenant: String,
}

impl Inner {
    fn new(trace_capacity: usize) -> Inner {
        Inner {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(trace::TraceRing::new(trace_capacity)),
        }
    }

    fn micros_since_origin(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn push_event(
        &self,
        name: &str,
        phase: TracePhase,
        args: &[(&str, TraceValue)],
        corr: Option<&Correlation>,
    ) {
        let event = TraceEvent {
            name: name.to_string(),
            phase,
            ts_us: self.micros_since_origin(),
            tid: current_thread_id(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            job: corr.map(|c| c.job),
            tenant: corr.map(|c| c.tenant.clone()),
        };
        self.events.lock().unwrap().push(event);
    }
}

thread_local! {
    // Lexical span nesting per thread; a disabled recorder never touches this.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Handle to a shared metrics/span collector, or a no-op placeholder.
///
/// Cloning is cheap (an `Arc` clone); all clones feed the same collector.
/// The [`Default`] recorder is disabled, so types can embed a `Recorder`
/// field without forcing observability on their users.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    // Correlation stamped onto every trace event this handle emits; clones
    // made via `correlated` share the same collector but tag their events.
    corr: Option<Arc<Correlation>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that collects spans, metrics, and trace events (the event
    /// ring is bounded at [`DEFAULT_TRACE_CAPACITY`]).
    pub fn enabled() -> Recorder {
        Recorder::enabled_with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Like [`Recorder::enabled`], but with an explicit bound on buffered
    /// trace events. Once full, the oldest events are evicted (counted by
    /// [`Recorder::trace_dropped`]); a capacity of 0 keeps no events at all.
    pub fn enabled_with_capacity(trace_capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::new(trace_capacity))),
            corr: None,
        }
    }

    /// A recorder whose every operation is a no-op.
    pub fn disabled() -> Recorder {
        Recorder {
            inner: None,
            corr: None,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the *same* collector whose trace events additionally
    /// carry `(job, tenant)` correlation — the request-scoped view
    /// [`correlate::job_trace`] reconstructs. Aggregates (counters, gauges,
    /// histograms, spans) are shared and unaffected; only [`TraceEvent`]s
    /// emitted through this handle (and code it is passed to) are tagged.
    ///
    /// Correlating a disabled recorder stays a no-op.
    pub fn correlated(&self, job: u64, tenant: &str) -> Recorder {
        Recorder {
            inner: self.inner.clone(),
            corr: self.inner.as_ref().map(|_| {
                Arc::new(Correlation {
                    job,
                    tenant: tenant.to_string(),
                })
            }),
        }
    }

    /// Open a span. The span closes (and is recorded) when the returned guard
    /// drops; nesting follows lexical scope on the current thread.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                let path = SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    stack.push(name.to_string());
                    stack.join("/")
                });
                Span {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        path,
                        name: name.to_string(),
                        start_us: inner.micros_since_origin(),
                        start: Instant::now(),
                    }),
                }
            }
        }
    }

    /// Add `by` to the counter `name` (creating it at 0 first).
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(inner) = &self.inner {
            *entry(&mut inner.counters.lock().unwrap(), name) += by;
        }
    }

    /// Set the gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            *entry(&mut inner.gauges.lock().unwrap(), name) = value;
        }
    }

    /// Record one sample into the histogram `name` (fixed-size log-bucketed
    /// storage; see [`LogHistogram`]).
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            entry(&mut inner.histograms.lock().unwrap(), name).record(value);
        }
    }

    /// Summary of histogram `name` as collected so far, if any sample was
    /// observed — the live-query form of [`RunReport::histogram`].
    pub fn histogram(&self, name: &str) -> Option<HistogramEntry> {
        self.inner.as_ref().and_then(|inner| {
            inner
                .histograms
                .lock()
                .unwrap()
                .get(name)
                .map(|h| h.entry(name))
        })
    }

    /// Record an instant trace event with typed key/value args.
    ///
    /// Note the `args` slice is built by the caller even when the recorder is
    /// disabled; keep argument construction cheap (numbers, `&str`) on hot
    /// paths, or gate expensive payloads on [`Recorder::is_enabled`].
    pub fn instant(&self, name: &str, args: &[(&str, TraceValue)]) {
        if let Some(inner) = &self.inner {
            inner.push_event(name, TracePhase::Instant, args, self.corr.as_deref());
        }
    }

    /// Open a duration trace event: a `Begin` event is recorded now and the
    /// matching `End` when the returned guard drops. Unlike [`Recorder::span`]
    /// this records both edges as they happen, so in-flight work is visible
    /// and typed args ride on the `Begin` edge.
    pub fn begin(&self, name: &str, args: &[(&str, TraceValue)]) -> TraceGuard {
        match &self.inner {
            None => TraceGuard { active: None },
            Some(inner) => {
                inner.push_event(name, TracePhase::Begin, args, self.corr.as_deref());
                TraceGuard {
                    // The guard carries the correlation so the End edge is
                    // tagged like its Begin (job_trace needs both).
                    active: Some((Arc::clone(inner), name.to_string(), self.corr.clone())),
                }
            }
        }
    }

    /// Snapshot of the buffered trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.events.lock().unwrap().snapshot())
    }

    /// Number of trace events evicted (or refused) by the bounded ring.
    pub fn trace_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.events.lock().unwrap().dropped())
    }

    /// Bound on buffered trace events (0 for a disabled recorder).
    pub fn trace_capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.events.lock().unwrap().capacity())
    }

    /// Export spans and trace events as Chrome trace-event JSON, viewable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Completed spans become `"X"` (complete) events under category
    /// `"span"`; trace events become `"B"`/`"E"`/`"i"` events under category
    /// `"event"` with their args attached. A disabled recorder exports a
    /// valid document with an empty `traceEvents` array.
    pub fn chrome_trace_json(&self) -> String {
        let mut out: Vec<Value> = Vec::new();
        let mut dropped = 0u64;
        let capacity = self.trace_capacity();
        if let Some(inner) = &self.inner {
            for s in inner.spans.lock().unwrap().iter() {
                out.push(Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str("span".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::U64(s.start_us)),
                    ("dur".to_string(), Value::U64(s.duration_us)),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(s.tid)),
                    (
                        "args".to_string(),
                        Value::Object(vec![("path".to_string(), Value::Str(s.path.clone()))]),
                    ),
                ]));
            }
            let ring = inner.events.lock().unwrap();
            dropped = ring.dropped();
            for e in ring.snapshot() {
                let mut obj = vec![
                    ("name".to_string(), Value::Str(e.name.clone())),
                    ("cat".to_string(), Value::Str("event".to_string())),
                    (
                        "ph".to_string(),
                        Value::Str(e.phase.chrome_ph().to_string()),
                    ),
                    ("ts".to_string(), Value::U64(e.ts_us)),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(e.tid)),
                ];
                if e.phase == TracePhase::Instant {
                    // Thread-scoped instant marker.
                    obj.push(("s".to_string(), Value::Str("t".to_string())));
                }
                let mut args: Vec<(String, Value)> = e
                    .args
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect();
                // Correlation rides in args so Perfetto can filter on it.
                if let Some(job) = e.job {
                    args.push(("job".to_string(), Value::U64(job)));
                }
                if let Some(tenant) = &e.tenant {
                    args.push(("tenant".to_string(), Value::Str(tenant.clone())));
                }
                if !args.is_empty() {
                    obj.push(("args".to_string(), Value::Object(args)));
                }
                out.push(Value::Object(obj));
            }
        }
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(out)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                // Truncated exports are self-describing: how many events the
                // ring evicted and how big it was.
                "otherData".to_string(),
                Value::Object(vec![
                    ("dropped_events".to_string(), Value::U64(dropped)),
                    ("trace_capacity".to_string(), Value::U64(capacity as u64)),
                    ("trace_truncated".to_string(), Value::Bool(dropped > 0)),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("value trees always serialize")
    }

    /// Current value of counter `name` (0 if absent or recorder disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner
                .counters
                .lock()
                .unwrap()
                .get(name)
                .copied()
                .unwrap_or(0)
        })
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.gauges.lock().unwrap().get(name).copied())
    }

    /// Snapshot everything collected so far into a serializable report.
    ///
    /// A disabled recorder returns an empty report (zero spans and metrics).
    pub fn report(&self, name: &str) -> RunReport {
        let Some(inner) = &self.inner else {
            return RunReport {
                name: name.to_string(),
                total_us: 0,
                spans: Vec::new(),
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                reconfig: None,
            };
        };
        let spans = inner.spans.lock().unwrap().clone();
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, &value)| CounterEntry {
                name: name.clone(),
                value,
            })
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, &value)| GaugeEntry {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| h.entry(name))
            .collect();
        RunReport {
            name: name.to_string(),
            total_us: inner.micros_since_origin(),
            spans,
            counters,
            gauges,
            histograms,
            reconfig: None,
        }
    }
}

/// RAII guard pairing a `Begin` trace event with its `End`, emitted on drop.
#[must_use = "the matching End event is emitted when this guard drops; binding it to `_` ends it immediately"]
pub struct TraceGuard {
    active: Option<(Arc<Inner>, String, Option<Arc<Correlation>>)>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some((inner, name, corr)) = self.active.take() {
            inner.push_event(&name, TracePhase::End, &[], corr.as_deref());
        }
    }
}

/// Exact nearest-rank percentile over an already-sorted sample slice.
///
/// This is the reference implementation the bucketed [`LogHistogram`]
/// quantiles are property-tested against; live histograms no longer keep
/// raw samples, but code that does (tests, benches) can still use this.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct ActiveSpan {
    inner: Arc<Inner>,
    path: String,
    name: String,
    start_us: u64,
    start: Instant,
}

/// RAII guard for an open span; records the span when dropped.
#[must_use = "a span is recorded when this guard drops; binding it to `_` closes it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            let record = SpanRecord {
                path: active.path,
                name: active.name,
                start_us: active.start_us,
                duration_us: active.start.elapsed().as_micros() as u64,
                tid: current_thread_id(),
            };
            active.inner.spans.lock().unwrap().push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_recorder_is_noop() {
        let rec = Recorder::disabled();
        {
            let _s = rec.span("phase");
            rec.incr("c", 5);
            rec.set_gauge("g", 1.0);
            rec.observe("h", 2.0);
        }
        let report = rec.report("empty");
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert_eq!(rec.counter("c"), 0);
        assert!(!rec.is_enabled());
    }

    #[test]
    fn spans_nest_lexically() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("flow");
            {
                let _inner = rec.span("route");
            }
            let _sibling = rec.span("rcm");
        }
        let report = rec.report("nesting");
        let paths: Vec<&str> = report.spans.iter().map(|s| s.path.as_str()).collect();
        // Spans are recorded at close time: innermost first.
        assert_eq!(paths, vec!["flow/route", "flow/rcm", "flow"]);
        assert!(report.span_busy_us("flow") >= report.span_busy_us("route"));
        assert!(report.span_wall_us("flow") >= report.span_wall_us("route"));
    }

    #[test]
    fn wall_time_is_the_union_of_span_intervals() {
        let span = |start_us, duration_us| SpanRecord {
            path: "work".into(),
            name: "work".into(),
            start_us,
            duration_us,
            tid: 0,
        };
        let mut report = Recorder::enabled().report("union");
        // [0, 10) and [5, 15) overlap; [15, 20) abuts; [30, 35) stands
        // apart; [31, 33) nests inside it.
        report.spans = vec![
            span(30, 5),
            span(5, 10),
            span(0, 10),
            span(15, 5),
            span(31, 2),
        ];
        assert_eq!(report.span_wall_us("work"), 25);
        assert_eq!(report.span_busy_us("work"), 32);
        assert_eq!(report.span_wall_us("absent"), 0);
    }

    #[test]
    fn concurrent_spans_on_two_threads_count_once_in_wall_time() {
        let rec = Recorder::enabled();
        let both_open = std::sync::Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _work = rec.span("work");
                    both_open.wait();
                    thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        let report = rec.report("concurrent");
        let tids: std::collections::BTreeSet<u64> = report.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 2, "one span per thread");
        let (wall, busy) = (report.span_wall_us("work"), report.span_busy_us("work"));
        // Both spans were open through the same 20 ms of sleep, so the wall
        // time falls short of the busy time by at least that overlap.
        assert!(wall >= 20_000, "wall {wall} us");
        assert!(wall + 19_000 <= busy, "wall {wall} us vs busy {busy} us");
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        let rec = Recorder::enabled();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let rec = rec.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        rec.incr("hits", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(rec.counter("hits"), 8000);
        assert_eq!(rec.report("conc").counter("hits"), 8000);
    }

    #[test]
    fn histogram_percentiles() {
        let rec = Recorder::enabled();
        for v in 1..=100 {
            rec.observe("latency", v as f64);
        }
        let report = rec.report("hist");
        let h = report.histogram("latency").expect("histogram present");
        // Count/min/max/mean are exact; percentiles are log-bucketed and
        // guaranteed within 1% of the exact nearest-rank values.
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!((h.p50 - 50.0).abs() <= 0.5, "p50 = {}", h.p50);
        assert!((h.p90 - 90.0).abs() <= 0.9, "p90 = {}", h.p90);
        assert!((h.p99 - 99.0).abs() <= 0.99, "p99 = {}", h.p99);
        assert!((h.p999 - 100.0).abs() <= 1.0, "p999 = {}", h.p999);
        // The live-query view agrees with the report.
        assert_eq!(rec.histogram("latency"), Some(h.clone()));
        assert_eq!(rec.histogram("absent"), None);
    }

    #[test]
    fn correlated_handles_tag_events_but_share_aggregates() {
        let rec = Recorder::enabled();
        let crec = rec.correlated(42, "tenant-x");
        crec.incr("jobs", 1);
        rec.incr("jobs", 1);
        crec.instant("job_submitted", &[]);
        {
            let _g = crec.begin("compile_job", &[]);
        }
        rec.instant("background_tick", &[]);

        // Aggregates land in the one shared collector.
        assert_eq!(rec.counter("jobs"), 2);

        let events = rec.trace_events();
        assert_eq!(events.len(), 4);
        for e in &events[..3] {
            assert_eq!(e.job, Some(42), "{} must carry the job id", e.name);
            assert_eq!(e.tenant.as_deref(), Some("tenant-x"));
        }
        assert_eq!(events[3].job, None);
        assert_eq!(events[3].tenant, None);

        // The Chrome export surfaces correlation as args and describes the
        // ring so truncated traces are self-evident.
        let doc = serde_json::parse(&rec.chrome_trace_json()).expect("valid JSON");
        let exported = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let begin = exported
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("compile_job"))
            .expect("begin exported");
        let args = begin.get("args").expect("correlation args");
        assert_eq!(args.get("job").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            args.get("tenant").and_then(|v| v.as_str()),
            Some("tenant-x")
        );
        let other = doc.get("otherData").expect("metadata");
        assert_eq!(
            other.get("dropped_events").and_then(|v| v.as_u64()),
            Some(0)
        );
        assert_eq!(
            other.get("trace_capacity").and_then(|v| v.as_u64()),
            Some(DEFAULT_TRACE_CAPACITY as u64)
        );
        assert_eq!(
            other.get("trace_truncated").and_then(|v| v.as_bool()),
            Some(false)
        );

        // A disabled recorder stays a no-op through correlation.
        let off = Recorder::disabled().correlated(1, "t");
        off.instant("x", &[]);
        assert!(off.trace_events().is_empty());
    }

    #[test]
    fn gauges_last_write_wins() {
        let rec = Recorder::enabled();
        rec.set_gauge("temp", 10.0);
        rec.set_gauge("temp", 2.5);
        assert_eq!(rec.gauge("temp"), Some(2.5));
        assert_eq!(rec.report("g").gauge("temp"), Some(2.5));
    }

    #[test]
    fn begin_end_events_pair_and_nest_in_order() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.begin("compile", &[("context", 0usize.into())]);
            {
                let _inner = rec.begin("route", &[]);
                rec.instant("route_iteration", &[("iteration", 1usize.into())]);
            }
        }
        let events = rec.trace_events();
        let shape: Vec<(&str, TracePhase)> =
            events.iter().map(|e| (e.name.as_str(), e.phase)).collect();
        assert_eq!(
            shape,
            vec![
                ("compile", TracePhase::Begin),
                ("route", TracePhase::Begin),
                ("route_iteration", TracePhase::Instant),
                ("route", TracePhase::End),
                ("compile", TracePhase::End),
            ]
        );
        assert_eq!(events[0].arg_u64("context"), Some(0));
        // Timestamps are monotone within the single emitting thread.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn disabled_recorder_emits_no_events() {
        let rec = Recorder::disabled();
        rec.instant("x", &[("k", 1u64.into())]);
        let _g = rec.begin("y", &[]);
        drop(_g);
        assert!(rec.trace_events().is_empty());
        assert_eq!(rec.trace_dropped(), 0);
        let doc = serde_json::parse(&rec.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn ring_capacity_bounds_recorded_events() {
        let rec = Recorder::enabled_with_capacity(3);
        for i in 0..10u64 {
            rec.instant("tick", &[("i", i.into())]);
        }
        let events = rec.trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.trace_dropped(), 7);
        assert_eq!(events[0].arg_u64("i"), Some(7));
    }

    #[test]
    fn concurrent_events_carry_distinct_thread_ids() {
        let rec = Recorder::enabled();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let rec = rec.clone();
                thread::spawn(move || {
                    rec.instant("worker_tick", &[]);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let tids: std::collections::BTreeSet<u64> =
            rec.trace_events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread must get its own tid");
    }

    #[test]
    fn chrome_trace_json_is_valid_and_carries_spans_events_and_args() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("flow");
            rec.instant(
                "context_switch",
                &[("from", 0usize.into()), ("change_rate", 0.25.into())],
            );
        }
        let doc = serde_json::parse(&rec.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .expect("span event");
        assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("flow"));
        assert!(span.get("dur").is_some());
        let inst = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("i"))
            .expect("instant event");
        let args = inst.get("args").expect("args object");
        assert_eq!(args.get("from").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(args.get("change_rate").and_then(|v| v.as_f64()), Some(0.25));
    }

    #[test]
    fn chrome_trace_json_escapes_adversarial_names_and_args() {
        // Event names and string args flow from netlist/tenant identifiers
        // the library does not control; quotes, backslashes, and control
        // characters must come out as valid JSON escapes, not raw bytes.
        let rec = Recorder::enabled();
        let hostile = "quote\" slash\\ newline\n tab\t esc\u{1b} null\u{0}";
        rec.instant(hostile, &[("note", TraceValue::Str(hostile.to_string()))]);
        let json = rec.chrome_trace_json();
        // Raw control bytes must never reach the output (pretty-printing
        // itself emits newlines, but never tabs, ESC, or NUL)...
        for raw in ['\t', '\u{1b}', '\u{0}'] {
            assert!(!json.contains(raw), "raw control byte {raw:?} in output");
        }
        // ...because each one was rewritten as a JSON escape sequence.
        for escaped in ["\\\"", "\\\\", "\\n", "\\t", "\\u001b", "\\u0000"] {
            assert!(json.contains(escaped), "missing escape {escaped}");
        }
        let doc = serde_json::parse(&json).expect("escaped output must re-parse");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let inst = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("i"))
            .expect("instant exported");
        // Round-trip fidelity: the hostile bytes survive escape + re-parse.
        assert_eq!(inst.get("name").and_then(|v| v.as_str()), Some(hostile));
        let args = inst.get("args").expect("args object");
        assert_eq!(args.get("note").and_then(|v| v.as_str()), Some(hostile));
    }

    #[test]
    fn report_round_trips_through_json() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("phase");
            rec.incr("n", 3);
            rec.observe("h", 1.0);
        }
        let report = rec.report("roundtrip");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
