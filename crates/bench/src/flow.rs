//! `experiments flow` and its reports, `BENCH_flow.json` and `BENCH_flow_trace.json`.

use crate::gate::{self, check, labels, Checks, Report, Violation};
use crate::{header, mixed_contexts, suite};
use mcfpga::area::{AreaParams, FabricWeights, Technology};
use mcfpga::config::ColumnSetStats;
use mcfpga::netlist::{workload, RandomNetlistParams};
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize, Value};

/// End-to-end flow sanity: compile + simulate + verify the whole suite.
pub fn run() {
    header("flow: end-to-end compile + equivalence over the circuit suite");
    let arch = ArchSpec::paper_default();
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>9} {:>10}",
        "circuit", "LUTs", "LBs", "planes", "ctrl SEs", "verified"
    );
    let mut quality = Vec::new();
    for circuit in suite() {
        let contexts = vec![circuit.clone(); 4];
        let mut dev = match MultiDevice::compile_aligned(&arch, &contexts) {
            Ok(d) => d,
            Err(e) => {
                println!("{:<12} failed: {e}", circuit.name());
                continue;
            }
        };
        dev.check_routing().expect("connectivity");
        let r = dev.report();
        let ok = check_device_equivalence(&mut dev, &contexts, 40, 1).is_ok();
        println!(
            "{:<12} {:>6} {:>6} {:>8.2} {:>9} {:>10}",
            circuit.name(),
            r.n_luts,
            r.n_lbs,
            r.mean_planes,
            r.controller_ses,
            if ok { "ok" } else { "FAIL" }
        );
        assert!(ok, "{} failed equivalence", circuit.name());
        // The aligned front end places and routes once for all contexts.
        quality.push(Quality::of(&dev, 0, circuit.name().to_string()));
    }
    println!("\nmixed 4-circuit device (adder/multiplier/ALU/popcount):");
    let circuits = mixed_contexts();
    let rec = Recorder::enabled();
    let outcome = mcfpga::flow::Flow::builder()
        .recorder(&rec)
        .sim_cycles(25)
        .run(&arch, &circuits)
        .expect("instrumented flow");
    outcome.device.check_routing().expect("connectivity");
    for (c, circuit) in circuits.iter().enumerate() {
        let label = format!("mixed-4-circuits/{}", circuit.name());
        quality.push(Quality::of(&outcome.device, c, label));
    }
    let stats =
        ColumnSetStats::measure(&outcome.device.switch_usage().columns(), arch.context_id());
    println!("  switch columns: {}", stats.table_string());

    // Serial vs parallel compile wall-clock on the same 4-context suite:
    // interleaved trials, best of 5 each (the compiled devices are
    // bit-for-bit identical, so only the schedule differs). The parallel
    // fan-out is capped at the machine's available parallelism; on a
    // single-core host both schedules run the same code.
    let time_compile = |parallel: bool| -> u64 {
        let opts = mcfpga::sim::CompileOptions::default().with_parallel(parallel);
        let start = std::time::Instant::now();
        MultiDevice::compile_opts(&arch, &circuits, &opts, &Recorder::disabled()).expect("compile");
        start.elapsed().as_micros() as u64
    };
    let mut compile_serial_us = u64::MAX;
    let mut compile_parallel_us = u64::MAX;
    for _ in 0..5 {
        compile_serial_us = compile_serial_us.min(time_compile(false));
        compile_parallel_us = compile_parallel_us.min(time_compile(true));
    }
    let workers = mcfpga::sim::CompileOptions::default().resolved_workers(circuits.len());
    println!(
        "\ncompile wall-clock (best of 5): serial {:.3} ms, parallel {:.3} ms \
         ({:.2}x across {workers} worker thread(s))",
        compile_serial_us as f64 / 1000.0,
        compile_parallel_us as f64 / 1000.0,
        compile_serial_us as f64 / compile_parallel_us.max(1) as f64,
    );

    // Phase timings + headline metrics, human-readable and as BENCH_flow.json.
    let report = &outcome.report;
    let phases = [
        "map",
        "place",
        "route",
        "columns",
        "logic_blocks",
        "rcm",
        "sim",
        "area",
    ];
    println!("\nphase timings (wall: union of the phase's spans; busy: their sum):");
    println!("  {:<14} {:>12} {:>12}", "phase", "wall", "busy");
    for phase in phases {
        println!(
            "  {:<14} {:>9.3} ms {:>9.3} ms",
            phase,
            report.span_wall_us(phase) as f64 / 1000.0,
            report.span_busy_us(phase) as f64 / 1000.0
        );
    }
    println!(
        "  route iterations {}   anneal steps {}   columns synthesized {}   \
         context switches {}",
        report.counter("route.iterations"),
        report.counter("anneal.temperature_steps"),
        report.counter("rcm.columns_synthesized"),
        report.counter("sim.context_switches"),
    );
    let paper = evaluate_paper_point();

    // The mixed suite's four *unrelated* circuits change most switch columns
    // between contexts (~56%), far above the paper's 5% headline assumption,
    // so its area ratio is naturally worse than conventional. A
    // structure-preserving 5%-change workload — the paper's intended
    // operating regime — is measured alongside so both points are labeled.
    let structured = workload(RandomNetlistParams::default(), 4, 0.05, 99);
    let structured_dev =
        MultiDevice::compile_aligned(&arch, &structured).expect("structured compile");
    let structured_change =
        ColumnSetStats::measure(&structured_dev.switch_usage().columns(), arch.context_id())
            .change_rate;
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    let structured_cmos =
        measured_area_comparison(&structured_dev, Technology::Cmos, &params, &weights);
    let structured_fepg =
        measured_area_comparison(&structured_dev, Technology::Fepg, &params, &weights);

    println!("\narea points (proposed/conventional, lower is better):");
    println!(
        "  mixed-4-circuits       ({:>4.1}% measured change): CMOS {:.3}  FePG {:.3}",
        100.0 * stats.change_rate,
        outcome.cmos.ratio,
        outcome.fepg.ratio
    );
    println!("    ^ four unrelated circuits: most switch columns differ across");
    println!("      contexts, so RCM decoders cost more than fixed planes here.");
    println!(
        "  structured-5pct-change ({:>4.1}% measured change): CMOS {:.3}  FePG {:.3}",
        100.0 * structured_change,
        structured_cmos.ratio,
        structured_fepg.ratio
    );
    println!("    ^ structure-preserving workload, 5% perturbation between");
    println!("      contexts: the paper's intended operating regime.");
    println!(
        "  paper-headline-5pct    (analytic model at   5%): CMOS {:.3}  FePG {:.3}",
        paper.cmos.ratio, paper.fepg.ratio
    );

    println!("\nplacement and routing quality (placed HPWL, routed wirelength,");
    println!("worst channel occupancy, critical routed delay, PathFinder iterations):");
    println!(
        "  {:<26} {:>5} {:>5} {:>4} {:>6} {:>6}",
        "context", "HPWL", "wire", "occ", "delay", "iters"
    );
    for q in &quality {
        println!(
            "  {:<26} {:>5} {:>5} {:>4} {:>6.1} {:>6}",
            q.label,
            q.hpwl,
            q.total_wirelength,
            q.max_occupancy,
            q.critical_delay,
            q.route_iterations
        );
    }

    let area_points = vec![
        AreaPoint {
            label: "mixed-4-circuits".into(),
            change_rate: stats.change_rate,
            cmos_ratio: outcome.cmos.ratio,
            fepg_ratio: outcome.fepg.ratio,
            note: "four unrelated circuits (adder/multiplier/ALU/popcount): most \
                   switch columns differ across contexts, far above the paper's \
                   5% headline assumption, so the ratio exceeds 1.0 by design"
                .into(),
        },
        AreaPoint {
            label: "structured-5pct-change".into(),
            change_rate: structured_change,
            cmos_ratio: structured_cmos.ratio,
            fepg_ratio: structured_fepg.ratio,
            note: "structure-preserving workload with 5% perturbation between \
                   contexts, measured on the compiled device: the paper's \
                   intended operating regime"
                .into(),
        },
        AreaPoint {
            label: "paper-headline-5pct".into(),
            change_rate: 0.05,
            cmos_ratio: paper.cmos.ratio,
            fepg_ratio: paper.fepg.ratio,
            note: "the analytic Section 5 point: 4 contexts, 5% configuration \
                   change (paper: CMOS 0.45, FePG 0.37)"
                .into(),
        },
    ];

    let bench = FlowBench {
        experiment: "flow".into(),
        cmos_ratio: outcome.cmos.ratio,
        fepg_ratio: outcome.fepg.ratio,
        headline_cmos_ratio: paper.cmos.ratio,
        headline_fepg_ratio: paper.fepg.ratio,
        change_rate: report.gauge("area.change_rate").unwrap_or(0.0),
        compile_serial_us,
        compile_parallel_us,
        parallelism: report.gauge("flow.parallelism").unwrap_or(1.0),
        area_points,
        quality,
        phase_totals_us: phases
            .iter()
            .map(|p| PhaseTotal {
                phase: p.to_string(),
                total_us: report.span_busy_us(p),
                wall_us: report.span_wall_us(p),
            })
            .collect(),
        report: report.clone(),
    };
    gate::write(&bench);

    // Chrome/Perfetto trace of the instrumented run: phase spans plus the
    // per-context-switch, per-route-iteration, and per-anneal-step events.
    // Load it in chrome://tracing or https://ui.perfetto.dev.
    let trace = rec.chrome_trace_json();
    std::fs::write(FlowTrace::FILE, &trace).expect("write the flow trace");
    println!(
        "wrote {} ({} bytes, {} events, {} dropped)",
        FlowTrace::FILE,
        trace.len(),
        rec.trace_events().len(),
        rec.trace_dropped()
    );
    if let Some(r) = &report.reconfig {
        println!(
            "reconfig telemetry: {} switches, mean change rate {:.4}, \
             columns {} = {} constant + {} single-bit + {} general, {} SEs",
            r.n_switches,
            r.mean_change_rate,
            r.n_columns,
            r.n_constant,
            r.n_single_bit,
            r.n_general,
            r.se_cost_total
        );
    }
}

/// Machine-readable record of the instrumented end-to-end run: headline area
/// ratios plus the full span/metric report (`BENCH_flow.json`).
#[derive(Serialize, Deserialize)]
pub(crate) struct FlowBench {
    experiment: String,
    /// Measured on the compiled mixed workload (its real change rate).
    cmos_ratio: f64,
    fepg_ratio: f64,
    /// The paper's Section 5 point: 4 contexts, 5% configuration change.
    headline_cmos_ratio: f64,
    headline_fepg_ratio: f64,
    change_rate: f64,
    /// Compile wall-clock on the 4-context suite, best of 3, per schedule.
    compile_serial_us: u64,
    compile_parallel_us: u64,
    /// Contexts fanned out across threads by the parallel compile.
    parallelism: f64,
    /// Labeled area points: the mixed suite (measured), the
    /// structure-preserving 5%-change workload (measured), and the paper's
    /// analytic headline.
    area_points: Vec<AreaPoint>,
    /// Placement and routing quality: each flow-suite circuit, then each
    /// context of the mixed device.
    quality: Vec<Quality>,
    phase_totals_us: Vec<PhaseTotal>,
    report: RunReport,
}

#[derive(Serialize, Deserialize)]
struct AreaPoint {
    label: String,
    change_rate: f64,
    cmos_ratio: f64,
    fepg_ratio: f64,
    note: String,
}

/// What placement and routing made of one compiled context. Seeded and
/// deterministic, so the gate holds every field exactly: a placer or router
/// change that moves one re-records it on purpose.
#[derive(Serialize, Deserialize)]
struct Quality {
    /// A flow-suite circuit, or `mixed-4-circuits/<circuit>` for a context
    /// of the mixed device.
    label: String,
    /// Placed half-perimeter wirelength (`Placement::cost`).
    hpwl: u64,
    /// Routed wirelength, worst per-edge occupancy and critical routed
    /// delay (`RoutingStats`).
    total_wirelength: usize,
    max_occupancy: usize,
    critical_delay: f64,
    /// PathFinder iterations to a legal routing.
    route_iterations: usize,
}

impl Quality {
    fn of(dev: &MultiDevice, c: usize, label: String) -> Quality {
        let stats = dev.routing_stats().swap_remove(c);
        Quality {
            label,
            hpwl: dev.placements()[c].cost,
            total_wirelength: stats.total_wirelength,
            max_occupancy: stats.max_occupancy,
            critical_delay: stats.critical_delay,
            route_iterations: dev.routed()[c].iterations,
        }
    }
}

#[derive(Serialize, Deserialize)]
struct PhaseTotal {
    phase: String,
    /// Busy time: the summed durations of the phase's spans, which run
    /// concurrently on compile-pool threads for per-context phases.
    total_us: u64,
    /// Wall time: the length of the union of the phase's span intervals.
    wall_us: u64,
}

/// The flow's `BENCH_baseline.json` numbers: the document's top-level keys.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    cmos_ratio: f64,
    fepg_ratio: f64,
    headline_cmos_ratio: f64,
    headline_fepg_ratio: f64,
    change_rate: f64,
    compile_serial_us: u64,
    compile_parallel_us: u64,
    area_points: Vec<AreaPoint>,
    quality: Vec<Quality>,
    phase_totals_us: Vec<BaselinePhase>,
}

/// A baseline phase total: busy time only.
#[derive(Deserialize)]
struct BaselinePhase {
    phase: String,
    total_us: u64,
}

/// Spans every instrumented flow run records.
const PHASE_SPANS: [&str; 7] = ["flow", "map", "place", "route", "rcm", "sim", "area"];

impl Report for FlowBench {
    const FILE: &'static str = "BENCH_flow.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        check!(c.near(self, base): cmos_ratio fepg_ratio headline_cmos_ratio
            headline_fepg_ratio change_rate);
        // The baseline's labelled area points, each near its baseline, with
        // both measured points among them.
        let have = labels(&self.area_points, |p| p.label.clone());
        let want = labels(&base.area_points, |p| p.label.clone());
        c.same_set("area_points", &have, &want);
        let measured = ["mixed-4-circuits", "structured-5pct-change"];
        c.includes("area_points", &have, &measured);
        for p in &self.area_points {
            c.at(format_args!("area_points[{}].", p.label));
            if let Some(b) = base.area_points.iter().find(|b| b.label == p.label) {
                check!(c.near(p, b): cmos_ratio fepg_ratio change_rate);
            }
        }
        // The baseline's quality entries, each exactly as recorded.
        c.at("");
        let have = labels(&self.quality, |q| q.label.clone());
        let want = labels(&base.quality, |q| q.label.clone());
        c.same_set("quality", &have, &want);
        for q in &self.quality {
            c.at(format_args!("quality[{}].", q.label));
            if let Some(b) = base.quality.iter().find(|b| b.label == q.label) {
                check!(c.eq(q, b): hpwl total_wirelength max_occupancy critical_delay
                    route_iterations);
            }
        }
        // Busy time fails only on an order-of-magnitude blowup; wall time
        // never exceeds it.
        c.at("");
        let have = labels(&self.phase_totals_us, |p| p.phase.clone());
        let want = labels(&base.phase_totals_us, |p| p.phase.clone());
        c.same_set("phase_totals_us", &have, &want);
        for p in &self.phase_totals_us {
            c.at(format_args!("phase_totals_us[{}].", p.phase));
            check!(c.le(p.wall_us, p.total_us));
            if let Some(b) = base.phase_totals_us.iter().find(|b| b.phase == p.phase) {
                check!(c.no_blowup(p.total_us, b.total_us));
            }
        }
        c.at("");
        check!(c.positive(self): compile_serial_us compile_parallel_us);
        check!(c.no_blowup(self, base): compile_serial_us compile_parallel_us);
        check!(c.ge(self.parallelism, 1.0));
        c.at("report.");
        let r = &self.report;
        c.includes("spans", &labels(&r.spans, |s| s.name.clone()), &PHASE_SPANS);
        let gauges = labels(&r.gauges, |g| g.name.clone());
        c.includes("gauges", &gauges, &["flow.parallelism"]);
        let counters = labels(&r.counters, |g| g.name.clone());
        c.includes("counters", &counters, &["route.nets_rerouted"]);
        // Per-switch reconfiguration telemetry, its column classes adding up.
        let Some(t) = &r.reconfig else {
            c.ensure(false, "reconfig", "null", "present");
            return c.done();
        };
        c.at("report.reconfig.");
        check!(c.positive(t.n_switches));
        let classes = [t.n_constant, t.n_single_bit, t.n_general].map(|n| n as u128);
        c.eq("n_columns", t.n_columns as u128, classes.iter().sum());
        c.done()
    }
}

/// The instrumented flow's Chrome trace (`BENCH_flow_trace.json`). Events
/// stay untyped: their `args` differ by event kind.
#[allow(non_snake_case)]
#[derive(Serialize, Deserialize)]
pub(crate) struct FlowTrace {
    traceEvents: Vec<Value>,
}

/// The paper-grounded payload of every `context_switch` trace event.
const SWITCH_ARGS: &str =
    "from to bits_flipped change_rate n_columns n_constant n_single_bit n_general se_cost_total";

impl Report for FlowTrace {
    const FILE: &'static str = "BENCH_flow_trace.json";
    type Baseline = ();

    fn check(&self, _: &()) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        let (mut names, mut spans, mut switches) = (Vec::new(), Vec::new(), 0);
        for (i, e) in self.traceEvents.iter().enumerate() {
            let name = e.get("name").and_then(Value::as_str).unwrap_or_default();
            names.push(name.to_string());
            if e.get("ph").and_then(Value::as_str) == Some("B") {
                spans.push(name.to_string());
            }
            if name == "context_switch" {
                switches += 1;
                c.at(format_args!("traceEvents[{i}].args."));
                for key in SWITCH_ARGS.split(' ') {
                    let present = e.get("args").and_then(|a| a.get(key)).is_some();
                    c.ensure(present, key, "missing", "present");
                }
            }
        }
        c.at("");
        c.includes("traceEvents[ph=B]", &spans, &PHASE_SPANS);
        c.positive("traceEvents[context_switch]", switches);
        let wanted = ["compile_context", "route_iteration", "anneal_step"];
        c.includes("traceEvents", &names, &wanted);
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, field, load_failures, remove, BASELINE_JSON};

    /// The flow part of the committed baseline is itself a passing report,
    /// once given the wall times it predates (taken as the busy times), its
    /// per-span records summed into per-name totals, and no histograms
    /// (whose percentiles it also predates).
    pub(crate) fn passing() -> (FlowBench, Baseline) {
        let mut doc = serde_json::parse(BASELINE_JSON).unwrap();
        if let Value::Array(phases) = field(&mut doc, "phase_totals_us") {
            for phase in phases {
                let busy = field(phase, "total_us").clone();
                if let Value::Object(fields) = phase {
                    fields.push(("wall_us".into(), busy));
                }
            }
        }
        let report = field(&mut doc, "report");
        *field(report, "histograms") = Value::Array(Vec::new());
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        if let Value::Array(records) = field(report, "spans") {
            for r in records {
                let name = r.get("name").and_then(Value::as_str).unwrap();
                let busy = r.get("duration_us").and_then(Value::as_u64).unwrap();
                match totals.iter_mut().find(|t| t.0 == name) {
                    Some(t) => (t.1, t.2) = (t.1 + 1, t.2 + busy),
                    None => totals.push((name.into(), 1, busy)),
                }
            }
        }
        let entries = totals.iter().map(|(name, count, busy)| {
            let json = format!(
                r#"{{"name": "{name}", "count": {count}, "busy_us": {busy}, "wall_us": {busy}}}"#
            );
            serde_json::parse(&json).unwrap()
        });
        *field(report, "spans") = Value::Array(entries.collect());
        (FlowBench::from_value(&doc).unwrap(), baseline(""))
    }

    /// A trace carrying every span and event the gate looks for.
    pub(crate) fn passing_trace() -> FlowTrace {
        serde_json::from_str(
            r#"{"traceEvents": [
                {"name": "flow", "ph": "B"}, {"name": "map", "ph": "B"},
                {"name": "place", "ph": "B"}, {"name": "route", "ph": "B"},
                {"name": "rcm", "ph": "B"}, {"name": "sim", "ph": "B"},
                {"name": "area", "ph": "B"}, {"name": "compile_context", "ph": "B"},
                {"name": "route_iteration", "ph": "i"}, {"name": "anneal_step", "ph": "i"},
                {"name": "context_switch", "ph": "i", "args": {"from": 0, "to": 1,
                    "bits_flipped": 3, "change_rate": 0.5, "n_columns": 6, "n_constant": 1,
                    "n_single_bit": 2, "n_general": 3, "se_cost_total": 9}}
            ]}"#,
        )
        .unwrap()
    }

    fn point(label: &str) -> AreaPoint {
        let (change_rate, cmos_ratio, fepg_ratio) = (0.0, 1.0, 1.0);
        let (label, note) = (label.into(), String::new());
        AreaPoint {
            label,
            change_rate,
            cmos_ratio,
            fepg_ratio,
            note,
        }
    }

    #[test]
    fn each_broken_flow_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("cmos_ratio", |r, _| r.cmos_ratio *= 1.1),
                ("headline_fepg_ratio", |r, _| r.headline_fepg_ratio *= 0.9),
                ("change_rate", |r, _| r.change_rate += 0.1),
                ("area_points[mixed-4-circuits].cmos_ratio", |r, _| {
                    r.area_points[0].cmos_ratio *= 1.1
                }),
                ("area_points[structured-5pct-change].change_rate", |r, _| {
                    r.area_points[1].change_rate = 0.01
                }),
                ("area_points[extra]", |r, _| {
                    r.area_points.push(point("extra"))
                }),
                ("area_points[paper-headline-5pct]", |r, _| {
                    r.area_points.pop();
                }),
                ("area_points[mixed-4-circuits]", |r, b| {
                    r.area_points.remove(0);
                    b.area_points.remove(0);
                }),
                ("phase_totals_us[place].wall_us", |r, _| {
                    r.phase_totals_us[1].wall_us = r.phase_totals_us[1].total_us + 1
                }),
                ("phase_totals_us[place].total_us", |r, b| {
                    r.phase_totals_us[1].total_us = 21 * b.phase_totals_us[1].total_us
                }),
                ("phase_totals_us[extra]", |r, _| {
                    let (phase, total_us, wall_us) = ("extra".into(), 1, 1);
                    r.phase_totals_us.push(PhaseTotal {
                        phase,
                        total_us,
                        wall_us,
                    })
                }),
                ("phase_totals_us[area]", |r, _| {
                    r.phase_totals_us.pop();
                }),
                ("compile_serial_us", |r, _| r.compile_serial_us = 0),
                ("compile_parallel_us", |r, b| {
                    r.compile_parallel_us = 21 * b.compile_parallel_us
                }),
                ("parallelism", |r, _| r.parallelism = 0.5),
                ("report.spans[rcm]", |r, _| {
                    r.report.spans.retain(|s| s.name != "rcm")
                }),
                ("report.gauges[flow.parallelism]", |r, _| {
                    r.report.gauges.clear()
                }),
                ("report.counters[route.nets_rerouted]", |r, _| {
                    r.report.counters.clear()
                }),
                ("report.reconfig", |r, _| r.report.reconfig = None),
                ("report.reconfig.n_switches", |r, _| {
                    r.report.reconfig.as_mut().unwrap().n_switches = 0
                }),
                ("report.reconfig.n_columns", |r, _| {
                    r.report.reconfig.as_mut().unwrap().n_general += 1
                }),
            ],
        );
    }

    /// The quality entry labelled `label`.
    fn entry<'a>(r: &'a mut FlowBench, label: &str) -> &'a mut Quality {
        r.quality
            .iter_mut()
            .find(|q| q.label == label)
            .expect(label)
    }

    #[test]
    fn each_changed_quality_number_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("quality[add4].hpwl", |r, _| entry(r, "add4").hpwl -= 1),
                ("quality[bshift8].total_wirelength", |r, _| {
                    entry(r, "bshift8").total_wirelength += 1
                }),
                ("quality[mixed-4-circuits/mul3].max_occupancy", |r, _| {
                    entry(r, "mixed-4-circuits/mul3").max_occupancy += 1
                }),
                ("quality[mixed-4-circuits/alu4].critical_delay", |r, _| {
                    entry(r, "mixed-4-circuits/alu4").critical_delay -= 0.4
                }),
                ("quality[alu4].route_iterations", |r, _| {
                    entry(r, "alu4").route_iterations += 1
                }),
                ("quality[crc8]", |r, _| {
                    r.quality.retain(|q| q.label != "crc8")
                }),
                ("quality[extra]", |r, _| {
                    let (label, hpwl, total_wirelength) = ("extra".into(), 1, 1);
                    let (max_occupancy, critical_delay, route_iterations) = (1, 1.0, 1);
                    r.quality.push(Quality {
                        label,
                        hpwl,
                        total_wirelength,
                        max_occupancy,
                        critical_delay,
                        route_iterations,
                    })
                }),
            ],
        );
    }

    #[test]
    fn each_broken_trace_invariant_is_one_violation() {
        breaks_one::<FlowTrace>(
            || (passing_trace(), ()),
            &[
                ("traceEvents[ph=B][route]", |t, _| {
                    *field(&mut t.traceEvents[3], "ph") = Value::Str("i".into())
                }),
                ("traceEvents[context_switch]", |t, _| {
                    t.traceEvents.pop();
                }),
                ("traceEvents[10].args.se_cost_total", |t, _| {
                    remove(field(&mut t.traceEvents[10], "args"), "se_cost_total")
                }),
                ("traceEvents[anneal_step]", |t, _| {
                    t.traceEvents.remove(9);
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "parallelism");
        load_failures::<FlowTrace>(|| (passing_trace(), ()), "traceEvents");
    }
}
