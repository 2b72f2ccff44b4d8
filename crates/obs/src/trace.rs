//! Structured trace events: the per-interval companion to the span totals
//! and metrics in the crate root.
//!
//! A [`TraceEvent`] is one timestamped occurrence — the begin or end edge of
//! a span, or an instant — carrying typed key/value arguments
//! ([`TraceValue`]) and the id of the thread that emitted it.
//! Events land in a bounded ring buffer inside the recorder (oldest events
//! are evicted first; the eviction count is reported alongside), so
//! instrumenting a hot loop cannot grow memory without bound.
//!
//! [`ReconfigTelemetry`] condenses the per-context-switch events the
//! simulator emits (bits flipped, measured change rate, pattern-class
//! census, SE decoder cost — the paper's Figs. 3–5 quantities) into a
//! summary suitable for a run report.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A typed trace-event argument value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceValue {
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
}

impl TraceValue {
    /// Unsigned view of the value, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            TraceValue::UInt(n) => Some(*n),
            TraceValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Numeric view of the value (integers widen losslessly enough here).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            TraceValue::Float(x) => Some(*x),
            TraceValue::UInt(n) => Some(*n as f64),
            TraceValue::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The JSON value this argument takes in a Chrome trace `args` object.
    pub(crate) fn to_json(&self) -> serde::Value {
        match self {
            TraceValue::Bool(b) => serde::Value::Bool(*b),
            TraceValue::Int(n) => serde::Value::I64(*n),
            TraceValue::UInt(n) => serde::Value::U64(*n),
            TraceValue::Float(x) => serde::Value::F64(*x),
            TraceValue::Str(s) => serde::Value::Str(s.clone()),
        }
    }
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> TraceValue {
        TraceValue::Bool(v)
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> TraceValue {
        TraceValue::Int(v)
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> TraceValue {
        TraceValue::UInt(v)
    }
}

impl From<u32> for TraceValue {
    fn from(v: u32) -> TraceValue {
        TraceValue::UInt(v as u64)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> TraceValue {
        TraceValue::UInt(v as u64)
    }
}

impl From<f64> for TraceValue {
    fn from(v: f64) -> TraceValue {
        TraceValue::Float(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> TraceValue {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> TraceValue {
        TraceValue::Str(v)
    }
}

/// Which kind of occurrence an event marks (Chrome phase `B` / `E` / `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracePhase {
    Begin,
    End,
    Instant,
}

impl TracePhase {
    /// The Chrome trace-event-format phase letter.
    pub fn chrome_ph(&self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub name: String,
    pub phase: TracePhase,
    /// Microseconds from recorder creation.
    pub ts_us: u64,
    /// Small sequential id of the emitting thread (process-wide).
    pub tid: u64,
    pub args: Vec<(String, TraceValue)>,
    /// Request-scoped correlation id, when the event was emitted through a
    /// [`crate::Recorder::correlated`] handle (see [`crate::correlate`]).
    pub job: Option<u64>,
    /// Tenant label riding with the correlation id.
    pub tenant: Option<String>,
}

impl TraceEvent {
    /// Look up an argument by key.
    pub fn arg(&self, key: &str) -> Option<&TraceValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Unsigned-integer argument, if present and integral.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.arg(key).and_then(TraceValue::as_u64)
    }

    /// Numeric argument, if present.
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        self.arg(key).and_then(TraceValue::as_f64)
    }

    /// String argument, if present.
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        self.arg(key).and_then(TraceValue::as_str)
    }
}

/// Bounded event store: oldest events are evicted once `capacity` is
/// reached, counting into `dropped`.
pub(crate) struct TraceRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> TraceRing {
        TraceRing {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    pub(crate) fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small sequential id of the calling thread, assigned on first use and
/// stable for the thread's lifetime (used for span and event attribution).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// One context switch as seen in the event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchTelemetry {
    pub from_context: usize,
    pub to_context: usize,
    /// Routing-switch configuration bits that differ between the two
    /// contexts' bitstreams.
    pub bits_flipped: u64,
    /// `bits_flipped / n_columns`: the measured inter-context change rate
    /// the paper parameterises at 5%.
    pub change_rate: f64,
}

/// Per-run reconfiguration summary, aggregated from the simulator's
/// `context_switch` trace events.
///
/// The pattern-class census (`n_constant` / `n_single_bit` / `n_general`,
/// paper Figs. 3–5) and total SE decoder cost (Fig. 9) are properties of
/// the compiled device's switch columns; the per-switch list records what
/// each individual context switch actually flipped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigTelemetry {
    /// Context switches observed.
    pub n_switches: usize,
    pub total_bits_flipped: u64,
    pub mean_change_rate: f64,
    pub max_change_rate: f64,
    /// Switch-column census of the device the switches ran on.
    pub n_columns: usize,
    pub n_constant: usize,
    pub n_single_bit: usize,
    pub n_general: usize,
    /// Total SEs across all column decoders.
    pub se_cost_total: u64,
    pub switches: Vec<SwitchTelemetry>,
}

impl ReconfigTelemetry {
    /// Aggregate every `context_switch` instant event in `events`; `None`
    /// when no context switch was traced.
    pub fn from_events(events: &[TraceEvent]) -> Option<ReconfigTelemetry> {
        let mut switches = Vec::new();
        let mut census: Option<(usize, usize, usize, usize, u64)> = None;
        for e in events {
            if e.name != "context_switch" || e.phase != TracePhase::Instant {
                continue;
            }
            switches.push(SwitchTelemetry {
                from_context: e.arg_u64("from")? as usize,
                to_context: e.arg_u64("to")? as usize,
                bits_flipped: e.arg_u64("bits_flipped")?,
                change_rate: e.arg_f64("change_rate")?,
            });
            census = Some((
                e.arg_u64("n_columns")? as usize,
                e.arg_u64("n_constant")? as usize,
                e.arg_u64("n_single_bit")? as usize,
                e.arg_u64("n_general")? as usize,
                e.arg_u64("se_cost_total")?,
            ));
        }
        let (n_columns, n_constant, n_single_bit, n_general, se_cost_total) = census?;
        let n = switches.len();
        let total_bits_flipped = switches.iter().map(|s| s.bits_flipped).sum();
        let mean_change_rate = switches.iter().map(|s| s.change_rate).sum::<f64>() / n as f64;
        let max_change_rate = switches
            .iter()
            .map(|s| s.change_rate)
            .fold(0.0f64, f64::max);
        Some(ReconfigTelemetry {
            n_switches: n,
            total_bits_flipped,
            mean_change_rate,
            max_change_rate,
            n_columns,
            n_constant,
            n_single_bit,
            n_general,
            se_cost_total,
            switches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch_event(from: usize, to: usize, flipped: u64, rate: f64) -> TraceEvent {
        TraceEvent {
            name: "context_switch".into(),
            phase: TracePhase::Instant,
            ts_us: 0,
            tid: 1,
            args: vec![
                ("from".into(), from.into()),
                ("to".into(), to.into()),
                ("bits_flipped".into(), flipped.into()),
                ("change_rate".into(), rate.into()),
                ("n_columns".into(), 10usize.into()),
                ("n_constant".into(), 6usize.into()),
                ("n_single_bit".into(), 3usize.into()),
                ("n_general".into(), 1usize.into()),
                ("se_cost_total".into(), 13u64.into()),
            ],
            job: None,
            tenant: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                name: format!("e{i}"),
                phase: TracePhase::Instant,
                ts_us: i,
                tid: 1,
                args: vec![],
                job: None,
                tenant: None,
            });
        }
        let kept = ring.snapshot();
        assert_eq!(ring.dropped(), 3);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].name, "e3");
        assert_eq!(kept[1].name, "e4");
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut ring = TraceRing::new(0);
        ring.push(TraceEvent {
            name: "e".into(),
            phase: TracePhase::Instant,
            ts_us: 0,
            tid: 1,
            args: vec![],
            job: None,
            tenant: None,
        });
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn telemetry_aggregates_switch_events() {
        let events = vec![
            switch_event(0, 1, 4, 0.4),
            switch_event(1, 2, 2, 0.2),
            TraceEvent {
                name: "other".into(),
                phase: TracePhase::Instant,
                ts_us: 0,
                tid: 1,
                args: vec![],
                job: None,
                tenant: None,
            },
        ];
        let t = ReconfigTelemetry::from_events(&events).expect("telemetry");
        assert_eq!(t.n_switches, 2);
        assert_eq!(t.total_bits_flipped, 6);
        assert!((t.mean_change_rate - 0.3).abs() < 1e-12);
        assert_eq!(t.max_change_rate, 0.4);
        assert_eq!(
            t.n_constant + t.n_single_bit + t.n_general,
            t.n_columns,
            "class census must cover every column"
        );
        assert_eq!(t.se_cost_total, 13);
    }

    #[test]
    fn telemetry_is_none_without_switch_events() {
        assert!(ReconfigTelemetry::from_events(&[]).is_none());
    }

    #[test]
    fn trace_values_convert_and_read_back() {
        assert_eq!(TraceValue::from(3usize).as_u64(), Some(3));
        assert_eq!(TraceValue::from(-2i64).as_u64(), None);
        assert_eq!(TraceValue::from(-2i64).as_f64(), Some(-2.0));
        assert_eq!(TraceValue::from(0.5).as_f64(), Some(0.5));
        assert_eq!(TraceValue::from("x").as_str(), Some("x"));
        assert_eq!(TraceValue::from(true), TraceValue::Bool(true));
    }
}
