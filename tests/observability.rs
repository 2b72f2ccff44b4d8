//! Integration test for the observability layer: a full instrumented
//! `core::flow` run must produce non-empty spans and metrics for every
//! pipeline phase, and the run report must survive a JSON round trip.

use mcfpga::netlist::library;
use mcfpga::prelude::*;

/// Every phase the pipeline is expected to time.
const PHASES: &[&str] = &[
    "flow",
    "map",
    "place",
    "route",
    "columns",
    "logic_blocks",
    "rcm",
    "sim",
    "area",
];

fn run_instrumented_flow() -> (mcfpga::flow::FlowOutcome, Recorder) {
    let arch = ArchSpec::paper_default();
    let circuits = vec![
        library::adder(4),
        library::parity(8),
        library::comparator(4),
    ];
    let rec = Recorder::enabled();
    let outcome = mcfpga::flow::Flow::builder()
        .recorder(&rec)
        .sim_cycles(10)
        .run(&arch, &circuits)
        .expect("flow compiles");
    (outcome, rec)
}

#[test]
fn full_flow_produces_spans_for_every_phase() {
    use mcfpga::obs::TracePhase;
    let (outcome, rec) = run_instrumented_flow();
    let report = &outcome.report;
    for phase in PHASES {
        let n = report.span(phase).map_or(0, |s| s.count);
        assert!(n > 0, "no span recorded for phase {phase:?}");
    }
    // Phase spans nest under the flow span, and every per-context phase
    // under its context's compile unit: replaying each thread's Begin/End
    // edges on a stack finds the parent open around each of them.
    let mut open: std::collections::HashMap<u64, Vec<String>> = Default::default();
    let mut parents: std::collections::HashMap<String, Option<String>> = Default::default();
    for e in rec.trace_events() {
        let stack = open.entry(e.tid).or_default();
        match e.phase {
            TracePhase::Begin => {
                if ["map", "place", "route"].contains(&e.name.as_str()) {
                    assert_eq!(
                        stack.last().map(String::as_str),
                        Some("compile_context"),
                        "span {} outside a compile_context",
                        e.name
                    );
                }
                parents.insert(e.name.clone(), stack.last().cloned());
                stack.push(e.name);
            }
            TracePhase::End => assert_eq!(stack.pop(), Some(e.name)),
            TracePhase::Instant => {}
        }
    }
    for name in ["rcm", "sim", "area"] {
        let parent = parents.get(name).expect("span exists");
        assert_eq!(parent.as_deref(), Some("flow"), "span {name} mis-nested");
    }
    // The flow span dominates each phase it contains in wall time. Busy
    // time may exceed it: per-context phases run concurrently on
    // compile-pool threads, and busy time sums every thread's span.
    let flow_us = report.span_wall_us("flow");
    for phase in &PHASES[1..] {
        let (wall, busy) = (report.span_wall_us(phase), report.span_busy_us(phase));
        assert!(
            wall <= flow_us,
            "phase {phase} wall {wall} us longer than the whole flow ({flow_us} us)"
        );
        assert!(
            busy >= wall,
            "phase {phase} busy {busy} us < wall {wall} us"
        );
    }
}

#[test]
fn full_flow_populates_the_metrics_registry() {
    let (outcome, _rec) = run_instrumented_flow();
    let report = &outcome.report;

    // Counters from every instrumented layer.
    assert!(report.counter("route.iterations") >= 3, "3 contexts routed");
    assert!(report.counter("anneal.temperature_steps") > 0);
    assert!(report.counter("place.moves_accepted") > 0);
    assert!(
        report.counter("place.moves_accepted") <= report.counter("place.moves_attempted"),
        "cannot accept more moves than attempted"
    );
    assert!(report.counter("rcm.columns_synthesized") > 0);
    assert_eq!(report.counter("sim.context_switches"), 2, "0->1->2");
    assert_eq!(report.counter("sim.steps"), 30, "10 cycles x 3 contexts");
    assert_eq!(report.counter("route.nonconverged_contexts"), 0);

    // The SE-per-column histogram matches the synthesized column count.
    let hist = report
        .histogram("rcm.ses_per_column")
        .expect("SE histogram recorded");
    assert_eq!(hist.count as u64, report.counter("rcm.columns_synthesized"));
    assert!(hist.min >= 1.0, "every column needs at least one SE");
    assert!(hist.p50 <= hist.p99);

    // Headline gauges are present and sane.
    let cmos = report.gauge("area.cmos_ratio").expect("cmos gauge");
    let fepg = report.gauge("area.fepg_ratio").expect("fepg gauge");
    assert!(cmos > 0.0 && fepg > 0.0);
    assert!(fepg < cmos, "FePG must beat CMOS at equal change rate");
}

#[test]
fn flow_report_round_trips_through_json() {
    let (outcome, _rec) = run_instrumented_flow();
    let json = serde_json::to_string_pretty(&outcome.report).expect("serialize");
    let back: RunReport = serde_json::from_str(&json).expect("parse");
    assert_eq!(back, outcome.report);
    assert!(json.contains("rcm.ses_per_column"));
}

#[test]
fn flow_trace_exports_valid_chrome_json() {
    use mcfpga::obs::TracePhase;
    let (_outcome, rec) = run_instrumented_flow();

    // The raw event stream pairs every Begin with an End on the same thread
    // (per-thread stacks can only close in LIFO order).
    let events = rec.trace_events();
    assert!(!events.is_empty(), "instrumented flow must emit events");
    let mut open: std::collections::HashMap<u64, Vec<&str>> = std::collections::HashMap::new();
    for e in &events {
        match e.phase {
            TracePhase::Begin => open.entry(e.tid).or_default().push(&e.name),
            TracePhase::End => {
                let top = open
                    .get_mut(&e.tid)
                    .and_then(Vec::pop)
                    .expect("End without matching Begin");
                assert_eq!(top, e.name, "mis-nested Begin/End on tid {}", e.tid);
            }
            TracePhase::Instant => {}
        }
    }
    assert!(open.values().all(Vec::is_empty), "unclosed Begin events");
    // Every compile_context event is tagged with an in-range worker id.
    let workers = mcfpga::sim::CompileOptions::default().resolved_workers(3);
    let compile_begins: Vec<_> = events
        .iter()
        .filter(|e| e.name == "compile_context" && e.phase == TracePhase::Begin)
        .collect();
    assert_eq!(compile_begins.len(), 3, "one per context");
    for e in &compile_begins {
        assert!((e.arg_u64("worker").expect("worker arg") as usize) < workers);
    }

    // The Chrome export parses as JSON and carries every event of the ring
    // (span edges and instants) and the context-switch payloads with every
    // required key.
    let doc = serde_json::parse(&rec.chrome_trace_json()).expect("valid trace JSON");
    let trace_events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(trace_events.len(), events.len());
    let phases: std::collections::BTreeSet<&str> = trace_events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|v| v.as_str()))
        .collect();
    for ph in ["B", "E", "i"] {
        assert!(phases.contains(ph), "missing phase {ph} in export");
    }
    let switch = trace_events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("context_switch"))
        .expect("context_switch event exported");
    let args = switch.get("args").expect("args object");
    for key in [
        "from",
        "to",
        "bits_flipped",
        "change_rate",
        "n_columns",
        "n_constant",
        "n_single_bit",
        "n_general",
        "se_cost_total",
    ] {
        assert!(args.get(key).is_some(), "context_switch missing {key}");
    }
}

#[test]
fn concurrent_recorder_clones_get_distinct_thread_ids() {
    // The parallel compile pool reuses one recorder clone per worker thread;
    // this pins down the property it relies on — every emitting thread gets
    // its own tid — independent of how many cores the test machine has.
    let rec = Recorder::enabled();
    let handles: Vec<_> = (0..4)
        .map(|w| {
            let rec = rec.clone();
            std::thread::spawn(move || {
                let _g = rec.span("worker", &[("worker", (w as u64).into())]);
                rec.instant("tick", &[]);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let events = rec.trace_events();
    let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 4, "4 threads must appear as 4 distinct tids");
    // Each thread's Begin, Instant, and End share that thread's tid.
    for tid in tids {
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.tid == tid)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, ["worker", "tick", "worker"]);
    }
}

#[test]
fn reconfig_telemetry_matches_direct_measurement() {
    let (outcome, rec) = run_instrumented_flow();
    let telemetry = outcome
        .report
        .reconfig
        .as_ref()
        .expect("instrumented flow attaches reconfig telemetry");
    assert_eq!(
        telemetry.n_switches as u64,
        outcome.report.counter("sim.context_switches")
    );
    assert_eq!(telemetry.switches.len(), telemetry.n_switches);

    // Every per-switch payload agrees with measure_change_rate computed
    // directly on the device's own switch bitstreams.
    let device = &outcome.device;
    for s in &telemetry.switches {
        let a = device.switch_state_bits(s.from_context);
        let b = device.switch_state_bits(s.to_context);
        assert_eq!(
            s.change_rate,
            mcfpga::config::measure_change_rate(&a, &b),
            "switch {} -> {}",
            s.from_context,
            s.to_context
        );
        let flipped = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        assert_eq!(s.bits_flipped, flipped);
    }
    assert_eq!(
        telemetry.total_bits_flipped,
        telemetry
            .switches
            .iter()
            .map(|s| s.bits_flipped)
            .sum::<u64>()
    );

    // The pattern-class census partitions the device's columns, and the SE
    // cost agrees with synthesizing every column directly.
    let columns = device.switch_usage().columns();
    let ctx = device.arch().context_id();
    assert_eq!(telemetry.n_columns, columns.len());
    assert_eq!(
        telemetry.n_constant + telemetry.n_single_bit + telemetry.n_general,
        telemetry.n_columns,
        "pattern classes must sum to the column total"
    );
    let se: u64 = columns
        .iter()
        .map(|&col| mcfpga::rcm::synthesize(col, ctx).cost().n_ses as u64)
        .sum();
    assert_eq!(telemetry.se_cost_total, se);

    // The summary survives the report's JSON round trip (it rides inside
    // BENCH_flow.json).
    let json = serde_json::to_string(&outcome.report).expect("serialize");
    let back: RunReport = serde_json::from_str(&json).expect("parse");
    assert_eq!(back.reconfig.as_ref(), Some(telemetry));
    let _ = rec;
}

mod histogram_props {
    //! The bucketed streaming histogram vs the exact reference: across
    //! adversarial sample distributions, every tracked quantile must land
    //! within the documented tolerance (≈1% relative, plus the absolute
    //! `MIN_TRACKED` slack for sub-resolution values).
    use mcfpga::obs::histogram::{LogHistogram, MIN_TRACKED};
    use mcfpga::obs::percentile;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Decode one `(mode, raw)` pair into a sample from that mode's
    /// distribution — uniform integers, log-spread over 18 decades,
    /// a repeated constant, sub-resolution values straddling the underflow
    /// bucket, and large magnitudes.
    fn decode(mode: u8, raw: u64) -> f64 {
        match mode % 5 {
            0 => (raw % 10_000 + 1) as f64,
            1 => 10f64.powf((raw % 1800) as f64 / 100.0 - 6.0),
            2 => 42.0,
            3 => (raw % 1000) as f64 * 1e-7,
            _ => (raw % 1_000_000 + 1) as f64 * 1e6,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bucketed_quantiles_track_exact_percentiles(
            samples in vec((0u8..5u8, any::<u64>()), 1..400usize),
            split in any::<u64>(),
        ) {
            let values: Vec<f64> = samples.iter().map(|&(m, r)| decode(m, r)).collect();

            // Split recording across two histograms and merge, so the
            // property also covers cross-recorder aggregation.
            let mut a = LogHistogram::new();
            let mut b = LogHistogram::new();
            for (i, &v) in values.iter().enumerate() {
                if (split >> (i % 64)) & 1 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.merge(&b);

            // Count, sum, min, max are exact.
            prop_assert_eq!(a.count(), values.len() as u64);
            let sum: f64 = values.iter().sum();
            prop_assert!((a.sum() - sum).abs() <= 1e-9 * sum.abs().max(1.0));
            let mut sorted = values.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(a.min(), sorted[0]);
            prop_assert_eq!(a.max(), sorted[sorted.len() - 1]);

            // Quantiles within 1% relative of the exact nearest-rank
            // reference (plus MIN_TRACKED absolute slack: values below the
            // tracked range collapse into the underflow bucket).
            for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
                let exact = percentile(&sorted, q * 100.0);
                let approx = a.quantile(q);
                let tol = 0.01 * exact.abs() + MIN_TRACKED;
                prop_assert!(
                    (approx - exact).abs() <= tol,
                    "q={}: approx {} vs exact {} (tol {})", q, approx, exact, tol
                );
            }
        }
    }
}

#[test]
fn disabled_recorder_flow_is_equivalent_and_silent() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![library::adder(4)];
    let rec = Recorder::disabled();
    let outcome = mcfpga::flow::run_flow(&arch, &circuits, 5, &rec).expect("flow compiles");
    assert!(outcome.report.spans.is_empty());
    assert!(outcome.report.counters.is_empty());
    assert!(rec.trace_events().is_empty(), "disabled recorder traced");
    assert!(outcome.report.reconfig.is_none());
    // Identical compile result to the instrumented run (determinism).
    let rec2 = Recorder::enabled();
    let outcome2 = mcfpga::flow::run_flow(&arch, &circuits, 5, &rec2).expect("flow compiles");
    assert_eq!(outcome.cmos.ratio, outcome2.cmos.ratio);
    assert_eq!(
        outcome.device.critical_delay(),
        outcome2.device.critical_delay()
    );
}
