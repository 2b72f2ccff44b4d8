//! Flow-wide observability: spans, a metrics registry, and machine-readable
//! run reports.
//!
//! The central type is [`Recorder`]. A recorder is either *enabled* (it owns a
//! shared, thread-safe collector) or *disabled* (every call is a no-op), so
//! instrumented code can unconditionally record without branching and callers
//! that do not care pay nothing:
//!
//! ```
//! use mcfpga_obs::{Recorder, TracePhase};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _flow = rec.span("flow", &[]);
//!     for context in 0..2usize {
//!         let _route = rec.span("route", &[("context", context.into())]);
//!         rec.incr("route.iterations", 3);
//!     }
//!     rec.observe("rcm.ses_per_column", 2.0);
//!     rec.set_gauge("anneal.temperature", 0.5);
//! }
//! // One totals entry per span name, name-ordered.
//! let report = rec.report("demo");
//! let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
//! assert_eq!(names, ["flow", "route"]);
//! assert_eq!(report.span("route").unwrap().count, 2);
//! assert!(report.span_wall_us("route") <= report.span_wall_us("flow"));
//! assert_eq!(report.counters[0].value, 6);
//! // Each span is also a Begin/End pair in the trace ring, nested in the
//! // order its thread opened and closed them.
//! let edges: Vec<TracePhase> = rec.trace_events().iter().map(|e| e.phase).collect();
//! use TracePhase::{Begin, End};
//! assert_eq!(edges, [Begin, Begin, End, Begin, End, End]);
//! let json = serde_json::to_string_pretty(&report).unwrap();
//! assert!(json.contains("busy_us"));
//! ```
//!
//! [`Recorder::span`] is the one way to time an interval. Opening a span
//! pushes a `Begin` [`TraceEvent`] into a bounded ring (see the [`trace`]
//! module docs) and dropping its guard pushes the matching `End`; closing
//! also adds the span to its name's [`SpanEntry`] totals: count, busy time
//! and wall time. The totals take constant memory per name and stay exact
//! forever; the per-interval detail in the ring stays exact until the ring
//! evicts events ([`Recorder::trace_dropped`]). Nesting is the order of each
//! thread's edges, which [`job_trace`] and [`Recorder::chrome_trace_json`]
//! read. Counters, gauges, and histograms are keyed by dotted names
//! (`route.overused_edges`, `place.moves_accepted`) and may be updated
//! concurrently from any thread holding a clone of the recorder; instants
//! come from [`Recorder::instant`].

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

/// Totals of every closed span with one name, in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEntry {
    pub name: String,
    /// Spans closed.
    pub count: u64,
    /// Busy time: the sum of their durations. Spans that ran at once on
    /// different threads each count in full.
    pub busy_us: u64,
    /// Wall time: the time during which at least one of them was open, so
    /// overlapping spans count once and it never exceeds `busy_us`.
    pub wall_us: u64,
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
    /// One entry per span name, name-ordered.
    pub spans: Vec<SpanEntry>,
    pub counters: Vec<CounterEntry>,
    pub gauges: Vec<GaugeEntry>,
    pub histograms: Vec<HistogramEntry>,
    /// Per-context-switch reconfiguration summary, when the run traced any
    /// context switches (attached by the flow driver; `None` otherwise).
    pub reconfig: Option<ReconfigTelemetry>,
}

impl RunReport {
    /// Totals of the spans named `name`, if any was opened.
    pub fn span(&self, name: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Busy time of the spans named `name`: the sum of their durations, in
    /// microseconds. Spans that ran concurrently on different threads each
    /// count in full, so this can exceed the wall time.
    pub fn span_busy_us(&self, name: &str) -> u64 {
        self.span(name).map_or(0, |s| s.busy_us)
    }

    /// Wall time of the spans named `name`: the length of the union of their
    /// intervals, in microseconds. Time during which several of them ran at
    /// once counts once, so this never exceeds [`RunReport::span_busy_us`].
    pub fn span_wall_us(&self, name: &str) -> u64 {
        self.span(name).map_or(0, |s| s.wall_us)
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

/// Running totals of one span name, fed its edges in timestamp order.
#[derive(Default)]
struct SpanTotals {
    count: u64,
    busy_us: u64,
    wall_us: u64,
    /// Spans of this name open now, and when that number last left 0.
    open: u64,
    open_since_us: u64,
}

impl SpanTotals {
    fn begin(&mut self, ts_us: u64) {
        if self.open == 0 {
            self.open_since_us = ts_us;
        }
        self.open += 1;
    }

    /// A span that began at `start_us` ends at `ts_us`.
    fn end(&mut self, start_us: u64, ts_us: u64) {
        self.count += 1;
        self.busy_us += ts_us - start_us;
        self.open -= 1;
        if self.open == 0 {
            self.wall_us += ts_us - self.open_since_us;
        }
    }
}

/// The event ring and the span totals, behind one lock.
struct Trace {
    ring: trace::TraceRing,
    spans: BTreeMap<String, SpanTotals>,
}

struct Inner {
    origin: Instant,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    // Bounded log-bucketed storage: memory is O(histogram names), not
    // O(samples), so a long-running server cannot grow without bound.
    histograms: Mutex<BTreeMap<String, LogHistogram>>,
    trace: Mutex<Trace>,
}

/// The value `name` keys in `map`, created at its default first. The key is
/// looked up by `&str`, so its `String` is allocated only on first insert,
/// not on every counter, gauge, histogram or span update.
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
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(Trace {
                ring: trace::TraceRing::new(trace_capacity),
                spans: BTreeMap::new(),
            }),
        }
    }

    fn micros_since_origin(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Push one event and return its timestamp. The clock is read under the
    /// trace lock, so ring order is timestamp order and a span's totals see
    /// its name's edges in that order; `start_us` is the `Begin` timestamp
    /// of the span an `End` closes.
    fn push_event(
        &self,
        name: &str,
        phase: TracePhase,
        args: &[(&str, TraceValue)],
        corr: Option<&Correlation>,
        start_us: u64,
    ) -> u64 {
        let mut event = TraceEvent {
            name: name.to_string(),
            phase,
            ts_us: 0,
            tid: current_thread_id(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            job: corr.map(|c| c.job),
            tenant: corr.map(|c| c.tenant.clone()),
        };
        let mut trace = self.trace.lock().unwrap();
        let ts_us = self.micros_since_origin();
        match phase {
            TracePhase::Begin => entry(&mut trace.spans, name).begin(ts_us),
            TracePhase::End => entry(&mut trace.spans, name).end(start_us, ts_us),
            TracePhase::Instant => {}
        }
        event.ts_us = ts_us;
        trace.ring.push(event);
        ts_us
    }
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
    /// Span totals are kept whatever the capacity.
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
    /// histograms, span totals) are shared and unaffected; only
    /// [`TraceEvent`]s emitted through this handle (and code it is passed
    /// to), span edges included, are tagged.
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

    /// Open a span: a `Begin` event carrying `args` is pushed now, and the
    /// matching `End` when the returned guard drops, which also adds the
    /// span to `name`'s [`SpanEntry`] totals. Spans nest in the order each
    /// thread opens and closes them.
    ///
    /// As with [`Recorder::instant`], the caller builds `args` even when the
    /// recorder is disabled; keep them cheap on hot paths.
    pub fn span(&self, name: &str, args: &[(&str, TraceValue)]) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => {
                let corr = self.corr.as_deref();
                let start_us = inner.push_event(name, TracePhase::Begin, args, corr, 0);
                Span {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        name: name.to_string(),
                        start_us,
                        corr: self.corr.clone(),
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
            inner.push_event(name, TracePhase::Instant, args, self.corr.as_deref(), 0);
        }
    }

    /// Snapshot of the buffered trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.trace.lock().unwrap().ring.snapshot()
        })
    }

    /// Number of trace events evicted (or refused) by the bounded ring.
    pub fn trace_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.trace.lock().unwrap().ring.dropped())
    }

    /// Bound on buffered trace events (0 for a disabled recorder).
    pub fn trace_capacity(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.trace.lock().unwrap().ring.capacity())
    }

    /// Export the trace events as Chrome trace-event JSON, viewable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Span edges become `"B"`/`"E"` events and instants `"i"` events, all
    /// under category `"event"` with their args attached. A disabled
    /// recorder exports a valid document with an empty `traceEvents` array.
    pub fn chrome_trace_json(&self) -> String {
        let mut out: Vec<Value> = Vec::new();
        let mut dropped = 0u64;
        let capacity = self.trace_capacity();
        if let Some(inner) = &self.inner {
            let trace = inner.trace.lock().unwrap();
            dropped = trace.ring.dropped();
            for e in trace.ring.snapshot() {
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
        let spans = inner
            .trace
            .lock()
            .unwrap()
            .spans
            .iter()
            .map(|(name, t)| SpanEntry {
                name: name.clone(),
                count: t.count,
                busy_us: t.busy_us,
                wall_us: t.wall_us,
            })
            .collect();
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
    name: String,
    start_us: u64,
    // The End edge is tagged like its Begin (job_trace needs both).
    corr: Option<Arc<Correlation>>,
}

/// RAII guard for an open span: dropping it pushes the `End` edge and adds
/// the span to its name's totals.
#[must_use = "a span closes when this guard drops; binding it to `_` closes it immediately"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.active.take() {
            let corr = s.corr.as_deref();
            s.inner
                .push_event(&s.name, TracePhase::End, &[], corr, s.start_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::thread;

    #[test]
    fn disabled_recorder_is_noop() {
        let rec = Recorder::disabled();
        {
            let _s = rec.span("phase", &[]);
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
            let _outer = rec.span("flow", &[]);
            {
                let _inner = rec.span("route", &[]);
            }
            let _sibling = rec.span("rcm", &[]);
        }
        // Replaying the thread's edges on a stack recovers each span's
        // enclosing span.
        let (mut stack, mut parents) = (Vec::new(), Vec::new());
        for e in rec.trace_events() {
            match e.phase {
                TracePhase::Begin => {
                    parents.push((e.name.clone(), stack.last().cloned()));
                    stack.push(e.name);
                }
                TracePhase::End => assert_eq!(stack.pop(), Some(e.name)),
                TracePhase::Instant => {}
            }
        }
        assert!(stack.is_empty());
        let flow = Some("flow".to_string());
        let want = [("flow", None), ("route", flow.clone()), ("rcm", flow)];
        assert_eq!(
            parents,
            want.map(|(name, parent)| (name.to_string(), parent))
        );
        let report = rec.report("nesting");
        let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["flow", "rcm", "route"]);
        assert!(report.spans.iter().all(|s| s.count == 1));
        assert!(report.span_busy_us("flow") >= report.span_busy_us("route"));
        assert!(report.span_wall_us("flow") >= report.span_wall_us("route"));
    }

    /// Wall and busy time of `intervals` (start, end) by sorting them and
    /// merging the union: the reference the constant-memory totals match.
    fn union_reference(intervals: &[(u64, u64)]) -> (u64, u64) {
        let mut sorted = intervals.to_vec();
        sorted.sort_unstable();
        let (mut wall, mut covered_to) = (0, 0);
        for (start, end) in sorted {
            let start = start.max(covered_to);
            if end > start {
                wall += end - start;
                covered_to = end;
            }
        }
        (wall, intervals.iter().map(|(s, e)| e - s).sum())
    }

    /// Feed `intervals` (start, end, tie-break) through one name's totals,
    /// edge by edge in timestamp order; edges at equal timestamps go in
    /// tie-break order, a span's Begin always before its own End.
    fn totals_of(intervals: &[(u64, u64, u64)]) -> SpanTotals {
        let mut edges = Vec::new();
        for &(start, end, tie) in intervals {
            let (begin_tie, end_tie) = if start == end {
                (tie.min(!tie), tie.max(!tie))
            } else {
                (tie, !tie)
            };
            edges.push((start, begin_tie, None));
            edges.push((end, end_tie, Some(start)));
        }
        edges.sort_unstable();
        let mut totals = SpanTotals::default();
        for (ts, _, start) in edges {
            match start {
                None => totals.begin(ts),
                Some(start) => totals.end(start, ts),
            }
        }
        assert_eq!(totals.open, 0);
        totals
    }

    #[test]
    fn wall_time_is_the_union_of_span_intervals() {
        // [0, 10) and [5, 15) overlap; [15, 20) abuts; [30, 35) stands
        // apart; [31, 33) nests inside it.
        let intervals = [
            (30, 35, 4),
            (5, 15, 1),
            (0, 10, 0),
            (15, 20, 2),
            (31, 33, 3),
        ];
        let totals = totals_of(&intervals);
        assert_eq!((totals.wall_us, totals.busy_us), (25, 32));
        assert_eq!(totals.count, 5);
        let rec = Recorder::enabled();
        let report = rec.report("union");
        assert_eq!(report.span_wall_us("absent"), 0);
        assert_eq!(report.span_busy_us("absent"), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Short intervals on a short axis: overlapping, nested, abutting
        /// and zero-length ones all turn up, and ties in every order.
        #[test]
        fn span_totals_match_the_union_of_intervals(
            raw in vec((0u64..40, 0u64..12, any::<u64>()), 0..12)
        ) {
            let intervals: Vec<(u64, u64, u64)> =
                raw.iter().map(|&(start, len, tie)| (start, start + len, tie)).collect();
            let totals = totals_of(&intervals);
            let plain: Vec<(u64, u64)> = intervals.iter().map(|&(s, e, _)| (s, e)).collect();
            prop_assert_eq!((totals.wall_us, totals.busy_us), union_reference(&plain));
            prop_assert_eq!(totals.count, intervals.len() as u64);
        }
    }

    #[test]
    fn concurrent_spans_on_two_threads_count_once_in_wall_time() {
        let rec = Recorder::enabled();
        let both_open = std::sync::Barrier::new(2);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _work = rec.span("work", &[]);
                    both_open.wait();
                    thread::sleep(std::time::Duration::from_millis(20));
                });
            }
        });
        let tids: std::collections::BTreeSet<u64> =
            rec.trace_events().iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "one span per thread");
        let report = rec.report("concurrent");
        assert_eq!(report.span("work").map(|s| s.count), Some(2));
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
            let _g = crec.span("compile_job", &[]);
        }
        rec.instant("background_tick", &[]);

        // Aggregates land in the one shared collector.
        assert_eq!(rec.counter("jobs"), 2);
        assert_eq!(
            rec.report("r").span("compile_job").map(|s| s.count),
            Some(1)
        );

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
            let _outer = rec.span("compile", &[("context", 0usize.into())]);
            {
                let _inner = rec.span("route", &[]);
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
        // Timestamps are monotone in ring order.
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // The totals' endpoints are the edges' timestamps.
        let report = rec.report("edges");
        assert_eq!(
            report.span_busy_us("compile"),
            events[4].ts_us - events[0].ts_us
        );
        assert_eq!(
            report.span_wall_us("route"),
            events[3].ts_us - events[1].ts_us
        );
    }

    #[test]
    fn disabled_recorder_emits_no_events() {
        let rec = Recorder::disabled();
        rec.instant("x", &[("k", 1u64.into())]);
        let _g = rec.span("y", &[]);
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
        // Span totals outlive the events the ring evicts.
        for _ in 0..10 {
            let _s = rec.span("job", &[]);
        }
        assert_eq!(rec.trace_dropped(), 27);
        assert_eq!(rec.report("ring").span("job").map(|s| s.count), Some(10));
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
            let _s = rec.span("flow", &[]);
            rec.instant(
                "context_switch",
                &[("from", 0usize.into()), ("change_rate", 0.25.into())],
            );
        }
        let doc = serde_json::parse(&rec.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let ph: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(ph, ["B", "i", "E"]);
        for span_edge in [&events[0], &events[2]] {
            assert_eq!(span_edge.get("name").and_then(|v| v.as_str()), Some("flow"));
        }
        let args = events[1].get("args").expect("args object");
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
            let _s = rec.span("phase", &[]);
            rec.incr("n", 3);
            rec.observe("h", 1.0);
        }
        let report = rec.report("roundtrip");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
