//! The experiment harness: regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run -p mcfpga-bench --bin experiments -- all
//! cargo run -p mcfpga-bench --bin experiments -- area45
//! ```
//!
//! Experiment ids (see DESIGN.md's experiment index):
//! `table1 table2 fig3_5 fig9 fig12 fig13_14 area45 area37 sweep_change
//!  sweep_contexts delay power flow sim serve serve_obs delta probe all`

use mcfpga::area::{
    area_comparison, context_switch_delay, routing_delay, static_power, AreaParams,
    ColumnDistribution, DelayParams, FabricWeights, PowerParams, Technology,
};
use mcfpga::config::{classify, ColumnSetStats, ConfigColumn};
use mcfpga::map::{map_netlist, pack_global, pack_local, PackOptions};
use mcfpga::netlist::dfg::{generated_family, paper_example};
use mcfpga::netlist::{library, perturb_netlist, random_netlist, workload, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::rcm::synthesize;
use mcfpga_bench::{header, mixed_contexts, suite};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = which == "all";
    let mut ran = false;
    macro_rules! run {
        ($name:literal, $f:ident) => {
            if all || which == $name {
                $f();
                ran = true;
            }
        };
    }
    run!("table2", table2);
    run!("table1", table1);
    run!("fig3_5", fig3_5);
    run!("fig9", fig9);
    run!("fig12", fig12);
    run!("fig13_14", fig13_14);
    run!("area45", area45);
    run!("area37", area37);
    run!("sweep_change", sweep_change);
    run!("sweep_contexts", sweep_contexts);
    run!("delay", delay);
    run!("power", power);
    run!("flow", flow);
    run!("fig12_adaptive", fig12_adaptive);
    run!("reconfig", reconfig);
    run!("faults", faults);
    run!("ablations", ablations);
    run!("temporal", temporal);
    run!("channel_width", channel_width);
    run!("sim", sim);
    run!("serve", serve);
    run!("serve_obs", serve_obs);
    run!("delta", delta);
    run!("probe", probe);
    run!("shard", shard);
    if !ran {
        eprintln!(
            "unknown experiment {which:?}; try: table1 table2 fig3_5 fig9 fig12 \
             fig12_adaptive fig13_14 area45 area37 sweep_change sweep_contexts \
             delay power flow reconfig faults ablations temporal channel_width \
             sim serve serve_obs delta probe shard all"
        );
        std::process::exit(2);
    }
}

/// Table 2: the context-ID encoding.
fn table2() {
    header("table2: context-ID encoding (paper Table 2)");
    for n in [4usize, 8] {
        let ctx = ContextId::new(n).unwrap();
        println!("{n} contexts, {} ID bits:", ctx.n_bits());
        print!("{}", ctx.table_string());
    }
}

/// Table 1: redundancy and regularity in real configuration data.
fn table1() {
    header("table1: redundancy/regularity in switch configuration data");
    println!("workload: 4 distinct circuits (adder, multiplier, ALU, popcount)");
    println!("compiled to one 4-context fabric; columns measured from routing.\n");
    let arch = ArchSpec::paper_default();
    let circuits = mixed_contexts();
    let dev = MultiDevice::compile(&arch, &circuits).expect("compile");
    let ctx = arch.context_id();
    let columns = dev.switch_usage().columns();

    // A Table 1-style excerpt: the first few switches of the bitstream.
    println!("sample rows (pattern written C3 C2 C1 C0, as in the paper):");
    println!("{:<8} {:<10} {:<24}", "switch", "pattern", "class");
    for (i, col) in columns.iter().take(10).enumerate() {
        println!(
            "G{:<7} {:<10} {:<24}",
            i + 1,
            col.pattern_string(),
            classify(*col, ctx).figure()
        );
    }
    let stats = ColumnSetStats::measure(&columns, ctx);
    println!("\nwhole-fabric statistics: {}", stats.table_string());
    println!(
        "-> duplicates (the G2 = G4 effect): {} of {} columns share an earlier pattern",
        stats.n_duplicate, stats.n_columns
    );

    // The paper's structural-redundancy claim on perturbed workloads.
    println!("\nstructure-preserving workloads (perturbation model, 5% change):");
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 7);
    let dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    let r = dev.report();
    println!("  LUT planes/position histogram: {:?}", r.plane_histogram);
    println!(
        "  mean planes {:.3} of 4; switch columns 100% constant (identical routes)",
        r.mean_planes
    );
}

/// Figures 3-5: the 16-pattern taxonomy and its frequencies.
fn fig3_5() {
    header("fig3_5: configuration-bit pattern classes (Figs. 3, 4, 5)");
    let ctx = ContextId::new(4).unwrap();
    println!("{:<9} {:<24} {:>7}", "pattern", "class", "SEs");
    for col in ConfigColumn::enumerate_all(4) {
        let class = classify(col, ctx);
        let ses = synthesize(col, ctx).cost().n_ses;
        println!(
            "{:<9} {:<24} {:>7}",
            col.pattern_string(),
            class.figure(),
            ses
        );
    }
    let (c, s, g) = mcfpga::config::pattern_census(ctx);
    println!("\ncensus: {c} constant / {s} single-bit / {g} general (paper: 2 / 4 / 10)");

    println!("\nclass probability vs change rate (analytic change model):");
    println!(
        "{:>6} {:>11} {:>12} {:>10}",
        "rate", "constant", "single-bit", "general"
    );
    for r in [0.0, 0.03, 0.05, 0.10, 0.25, 0.50] {
        let d = ColumnDistribution::new(ctx, r);
        let (pc, ps, pg) = d.class_probabilities();
        println!(
            "{:>5.0}% {:>10.1}% {:>11.1}% {:>9.1}%",
            r * 100.0,
            pc * 100.0,
            ps * 100.0,
            pg * 100.0
        );
    }
}

/// Figure 9: decoder synthesis cost per pattern.
fn fig9() {
    header("fig9: reconfigurable decoder synthesis (SE netlists)");
    let ctx = ContextId::new(4).unwrap();
    // The paper's example: (C3, C2, C1, C0) = (1, 0, 0, 0).
    let col = ConfigColumn::from_fn(4, |c| c == 3);
    let prog = synthesize(col, ctx);
    let cost = prog.cost();
    println!("pattern 1000 (the Fig. 9 example):");
    println!(
        "  {} SEs, {} pass stages, {} inverting controllers, mux depth {}",
        cost.n_ses, cost.n_pass_stages, cost.n_inverters, cost.depth
    );
    println!("  (paper: four SEs form the multiplexer)");
    for context in 0..4 {
        assert_eq!(prog.eval(ctx, context), col.value_in(context));
    }
    println!("  functional check: decoder output == column in every context  [ok]");

    println!("\nSE cost of every 4-context pattern (1 for Figs. 3/4, 4 for Fig. 5):");
    let mut by_cost = [0usize; 5];
    for col in ConfigColumn::enumerate_all(4) {
        by_cost[synthesize(col, ctx).cost().n_ses] += 1;
    }
    for (ses, count) in by_cost.iter().enumerate() {
        if *count > 0 {
            println!("  {count:>2} patterns cost {ses} SE(s)");
        }
    }

    println!("\ngeneralisation to 8 contexts (256 patterns):");
    let ctx8 = ContextId::new(8).unwrap();
    let mut hist = std::collections::BTreeMap::new();
    for mask in 0..256u32 {
        let col = ConfigColumn::from_mask(mask, 8);
        *hist
            .entry(synthesize(col, ctx8).cost().n_ses)
            .or_insert(0usize) += 1;
    }
    for (ses, count) in hist {
        println!("  {count:>3} patterns cost {ses} SE(s)");
    }
}

/// Figure 12: MCMG-LUT granularity modes and their mapping consequences.
fn fig12() {
    header("fig12: MCMG-LUT granularity (pool-preserving modes)");
    let g = LutGeometry::paper_default();
    println!(
        "bit pool: {} bits/output x {} outputs",
        g.pool_bits(),
        g.outputs
    );
    for m in g.modes() {
        println!(
            "  mode {m}: {} bits, {} plane-select ID bits",
            m.bits(),
            m.plane_select_bits()
        );
    }
    println!("(paper Fig. 12: 4-input x 4 planes <-> 5-input x 2 planes)");

    println!("\nmapped LUT count per circuit at each granularity:");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>9}",
        "circuit", "k=4", "k=5", "k=6", "depth@6"
    );
    for circuit in suite() {
        let counts: Vec<usize> = [4usize, 5, 6]
            .iter()
            .map(|&k| map_netlist(&circuit, k).unwrap().luts.len())
            .collect();
        let depth = map_netlist(&circuit, 6).unwrap().depth();
        println!(
            "{:<12} {:>7} {:>7} {:>7} {:>9}",
            circuit.name(),
            counts[0],
            counts[1],
            counts[2],
            depth
        );
    }
    println!("\nlarger k (fewer planes) reduces LUT count: the trade the adaptive");
    println!("logic block makes automatically when contexts share functions.");
}

/// Figures 13-14: globally vs locally controlled MCMG-LUTs.
fn fig13_14() {
    header("fig13_14: globally vs locally controlled MCMG-LUTs");
    let opts = PackOptions::figure_13_14();
    let ctx2 = ContextId::new(2).unwrap();

    let dfgs = paper_example();
    let global = pack_global(&dfgs, &opts);
    let local = pack_local(&dfgs, &opts, ctx2);
    println!("the paper's own DFG (O1..O4, O2/O3 shared between contexts):");
    println!(
        "  global control: {} LUTs, {} stored planes   (paper Fig. 13: 3 LUTs)",
        global.n_luts, global.planes_stored
    );
    println!(
        "  local control:  {} LUTs, {} stored planes   (paper Fig. 14: 2 LUTs)",
        local.n_luts, local.planes_stored
    );

    println!("\ngenerated DFG families (2 contexts, 16 ops, varying sharing):");
    println!(
        "{:>9} {:>12} {:>12} {:>10}",
        "shared", "global LUTs", "local LUTs", "saving"
    );
    for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let fam = generated_family(2, 4, 16, share, 11);
        let g = pack_global(&fam, &opts);
        let l = pack_local(&fam, &opts, ctx2);
        println!(
            "{:>8.0}% {:>12} {:>12} {:>9.0}%",
            share * 100.0,
            g.n_luts,
            l.n_luts,
            100.0 * (1.0 - l.n_luts as f64 / g.n_luts as f64)
        );
    }

    println!("\n4-context families (pool 2^4, up to 4 planes):");
    let opts4 = PackOptions {
        geometry: LutGeometry {
            outputs: 1,
            min_inputs: 2,
            max_inputs: 4,
        },
        base_outputs: 1,
    };
    let ctx4 = ContextId::new(4).unwrap();
    println!(
        "{:>9} {:>12} {:>12} {:>10}",
        "shared", "global LUTs", "local LUTs", "saving"
    );
    for share in [0.0, 0.5, 1.0] {
        let fam = generated_family(4, 4, 12, share, 5);
        let g = pack_global(&fam, &opts4);
        let l = pack_local(&fam, &opts4, ctx4);
        println!(
            "{:>8.0}% {:>12} {:>12} {:>9.0}%",
            share * 100.0,
            g.n_luts,
            l.n_luts,
            100.0 * (1.0 - l.n_luts as f64 / g.n_luts as f64)
        );
    }
}

fn print_comparison(label: &str, cmp: &mcfpga::area::AreaComparison, paper: f64) {
    println!(
        "{label}: proposed/conventional = {:.3}  (paper: {paper:.2})",
        cmp.ratio
    );
    println!(
        "  switches: {:.0} vs {:.0} transistors/cell (ratio {:.3})",
        cmp.proposed_switches,
        cmp.conventional_switches,
        cmp.proposed_switches / cmp.conventional_switches
    );
    println!(
        "  logic:    {:.0} vs {:.0} transistors/cell (ratio {:.3})",
        cmp.proposed_lb,
        cmp.conventional_lb,
        cmp.proposed_lb / cmp.conventional_lb
    );
}

/// Section 5, CMOS: the 45% headline.
fn area45() {
    header("area45: Section 5 CMOS area comparison");
    println!("constraint: same context count (4); 6-input 2-output MCMG-LUTs;");
    println!("5% of configuration data changes between contexts.\n");
    let eval = evaluate_paper_point();
    print_comparison("CMOS", &eval.cmos, 0.45);

    // Cross-check against a measured compiled design.
    let arch = ArchSpec::paper_default();
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 99);
    let dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    let measured = measured_area_comparison(
        &dev,
        Technology::Cmos,
        &AreaParams::paper_default(),
        &FabricWeights::default(),
    );
    println!(
        "\nmeasured on a compiled 5%-change workload: ratio {:.3}",
        measured.ratio
    );
    println!("(structure-preserving workloads route identically, so their switch");
    println!(" columns are all constant and the measured ratio sits below analytic)");
}

/// Section 5, FePG: the 37% headline.
fn area37() {
    header("area37: Section 5 FePG area comparison");
    let eval = evaluate_paper_point();
    print_comparison("FePG", &eval.fepg, 0.37);
    println!("\nFePG switch elements merge logic and non-volatile storage at the");
    println!("device level; the paper scales an SE by 0.5 (Fig. 15), which we");
    println!("apply to every RCM SE including size controllers.");
}

/// Extension sweep: area ratio vs change rate.
fn sweep_change() {
    header("sweep_change: area ratio vs configuration change rate");
    let arch = ArchSpec::paper_default();
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    println!(
        "{:>6} {:>8} {:>8} {:>10}",
        "rate", "CMOS", "FePG", "E[SE/col]"
    );
    for r in [
        0.0, 0.01, 0.02, 0.03, 0.05, 0.08, 0.10, 0.15, 0.20, 0.30, 0.50,
    ] {
        let cmos = area_comparison(&arch, r, Technology::Cmos, &params, &weights);
        let fepg = area_comparison(&arch, r, Technology::Fepg, &params, &weights);
        let d = ColumnDistribution::new(arch.context_id(), r);
        println!(
            "{:>5.0}% {:>8.3} {:>8.3} {:>10.3}",
            r * 100.0,
            cmos.ratio,
            fepg.ratio,
            d.expected_ses()
        );
    }
    println!("\ncrossover: the RCM advantage erodes as redundancy disappears;");
    println!("past ~25-30% change the proposed switches cost more than fixed planes.");
}

/// Extension sweep: area ratio vs context count.
fn sweep_contexts() {
    header("sweep_contexts: area ratio vs context count (5% change)");
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    println!("{:>9} {:>8} {:>8}", "contexts", "CMOS", "FePG");
    for n in [2usize, 3, 4, 6, 8] {
        let arch = ArchSpec::paper_default().with_contexts(n);
        let cmos = area_comparison(&arch, 0.05, Technology::Cmos, &params, &weights);
        let fepg = area_comparison(&arch, 0.05, Technology::Fepg, &params, &weights);
        println!("{n:>9} {:>8.3} {:>8.3}", cmos.ratio, fepg.ratio);
    }
    println!("\nmore contexts amplify the saving: conventional planes scale with n,");
    println!("RCM decoders scale with how often bits actually change.");
}

/// Figures 10-11: double-length lines vs serial-SE routing.
fn delay() {
    header("delay: double-length lines (Figs. 10-11)");
    let p = DelayParams::default();
    println!("analytic path delay (units), serial SEs vs with double-length lines:");
    println!(
        "{:>7} {:>10} {:>12} {:>9}",
        "cells", "serial", "double-len", "speedup"
    );
    for cells in [1usize, 2, 4, 6, 8, 12, 16] {
        let serial = routing_delay(cells, false, &p);
        let fast = routing_delay(cells, true, &p);
        println!(
            "{cells:>7} {serial:>10.1} {fast:>12.1} {:>8.2}x",
            serial / fast
        );
    }

    println!("\nmeasured on routed circuits (critical routed path, same placement seed):");
    println!(
        "{:<12} {:>12} {:>14}",
        "circuit", "no DL lines", "with DL lines"
    );
    for circuit in [library::adder(8), library::multiplier(3), library::alu(4)] {
        let mut no_dl = ArchSpec::paper_default();
        no_dl.routing.double_length_tracks = 0;
        let with_dl = ArchSpec::paper_default();
        let d = |arch: &ArchSpec| -> f64 {
            let dev = MultiDevice::compile(arch, std::slice::from_ref(&circuit)).expect("compile");
            dev.critical_delay()
        };
        println!(
            "{:<12} {:>12.1} {:>14.1}",
            circuit.name(),
            d(&no_dl),
            d(&with_dl)
        );
    }

    println!("\ncontext-switch decode latency (ID distribution + decoder settle):");
    for (label, depth) in [
        ("constant/single-bit (common)", 0usize),
        ("general 4-ctx", 1),
        ("general 8-ctx", 2),
    ] {
        println!("  {label}: {:.1} units", context_switch_delay(depth, &p));
    }
}

/// Static power comparison.
fn power() {
    header("power: static configuration-storage power");
    let arch = ArchSpec::paper_default();
    let weights = FabricWeights::default();
    let pp = PowerParams::default();
    println!(
        "{:>10} {:>14} {:>12} {:>8}",
        "tech", "conventional", "proposed", "ratio"
    );
    for (label, tech) in [("CMOS", Technology::Cmos), ("FePG", Technology::Fepg)] {
        let rep = static_power(&arch, 0.05, tech, &pp, &weights);
        println!(
            "{label:>10} {:>14.1} {:>12.1} {:>8.3}",
            rep.conventional, rep.proposed, rep.ratio
        );
    }
    println!("\nFePG storage is non-volatile: switch-block leakage vanishes entirely.");
}

/// End-to-end flow sanity: compile + simulate + verify the whole suite.
fn flow() {
    header("flow: end-to-end compile + equivalence over the circuit suite");
    let arch = ArchSpec::paper_default();
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>9} {:>10}",
        "circuit", "LUTs", "LBs", "planes", "ctrl SEs", "verified"
    );
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
    let json = serde_json::to_string_pretty(&bench).expect("serialize flow bench");
    std::fs::write("BENCH_flow.json", &json).expect("write BENCH_flow.json");
    println!("\nwrote BENCH_flow.json ({} bytes)", json.len());

    // Chrome/Perfetto trace of the instrumented run: phase spans plus the
    // per-context-switch, per-route-iteration, and per-anneal-step events.
    // Load it in chrome://tracing or https://ui.perfetto.dev.
    let trace = rec.chrome_trace_json();
    std::fs::write("BENCH_flow_trace.json", &trace).expect("write BENCH_flow_trace.json");
    println!(
        "wrote BENCH_flow_trace.json ({} bytes, {} events, {} dropped)",
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
#[derive(serde::Serialize)]
struct FlowBench {
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
    phase_totals_us: Vec<PhaseTotal>,
    report: RunReport,
}

#[derive(serde::Serialize)]
struct AreaPoint {
    label: String,
    change_rate: f64,
    cmos_ratio: f64,
    fepg_ratio: f64,
    note: String,
}

#[derive(serde::Serialize)]
struct PhaseTotal {
    phase: String,
    /// Busy time: the summed durations of the phase's spans, which run
    /// concurrently on compile-pool threads for per-context phases.
    total_us: u64,
    /// Wall time: the length of the union of the phase's span intervals.
    wall_us: u64,
}

/// Adaptive granularity in the compile flow: the Fig. 12 trade made
/// automatically per workload.
fn fig12_adaptive() {
    header("fig12_adaptive: automatic granularity selection");
    let arch = ArchSpec::paper_default();
    println!("identical contexts (full sharing) vs divergent workloads:\n");
    println!(
        "{:<26} {:>7} {:>9} {:>9}",
        "workload", "chosen k", "LUTs", "LUTs@k=4"
    );
    for circuit in [
        library::alu(4),
        library::multiplier(3),
        library::fir4(4, [1, 2, 1, 0]),
    ] {
        let contexts = vec![circuit.clone(); 4];
        let adaptive = MultiDevice::compile_aligned_adaptive(&arch, &contexts).expect("compile");
        let fixed = MultiDevice::compile_aligned(&arch, &contexts).expect("compile");
        println!(
            "{:<26} {:>7} {:>9} {:>9}",
            format!("{} x4 (shared)", circuit.name()),
            adaptive.report().granularity,
            adaptive.report().n_luts,
            fixed.report().n_luts
        );
    }
    for rate in [0.05, 0.5] {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 50,
                n_outputs: 5,
                dff_fraction: 0.0,
            },
            4,
            rate,
            3,
        );
        let adaptive = MultiDevice::compile_aligned_adaptive(&arch, &w).expect("compile");
        let fixed = MultiDevice::compile_aligned(&arch, &w).expect("compile");
        println!(
            "{:<26} {:>7} {:>9} {:>9}",
            format!("random, {:.0}% change", rate * 100.0),
            adaptive.report().granularity,
            adaptive.report().n_luts,
            fixed.report().n_luts
        );
    }
    println!("\nshared workloads climb to 6-input single-plane LUTs (fewest LUTs);");
    println!("divergent ones fall back towards 4-input 4-plane mode.");
}

/// Reconfiguration-time model (the paper's reference \[4\]).
fn reconfig() {
    use mcfpga::config::{plan_reload, ReconfigModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    header("reconfig: delta context loading (Kennedy FPL'03, ref [4])");
    let model = ReconfigModel::default();
    let mut rng = StdRng::seed_from_u64(12);
    let n_bits = 64 * 1024;
    let old: Vec<bool> = (0..n_bits).map(|_| rng.gen_bool(0.5)).collect();
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "change", "full cyc", "delta cyc", "speedup"
    );
    for rate in [0.0f64, 0.01, 0.03, 0.05, 0.10, 0.25, 1.0] {
        // Cluster the changes in 32-bit words (structural redundancy: whole
        // switch columns change together).
        let mut new = old.clone();
        let words = n_bits / 32;
        let dirty = (words as f64 * rate) as usize;
        for w in 0..dirty {
            let base = (w * words / dirty.max(1)) % words * 32;
            for b in &mut new[base..base + 32] {
                *b = !*b;
            }
        }
        let plan = plan_reload(&old, &new, &model);
        let speed = if plan.delta_cycles == 0 {
            "inf".to_string()
        } else {
            format!("{:.1}x", plan.speedup())
        };
        println!(
            "{:>7.0}% {:>12} {:>12} {:>10}",
            rate * 100.0,
            plan.full_cycles,
            plan.delta_cycles,
            speed
        );
    }
    println!("\nat the paper's ~5% structural change, delta loading is ~10x faster");
    println!("than a full reload: background context swapping is cheap.");
}

/// Fault-injection campaign on the compiled fabric.
fn faults() {
    use mcfpga::sim::lut_fault_campaign;
    header("faults: configuration-upset campaign on the compiled fabric");
    let arch = ArchSpec::paper_default();
    let w = workload(
        RandomNetlistParams {
            n_inputs: 6,
            n_gates: 40,
            n_outputs: 6,
            dff_fraction: 0.0,
        },
        4,
        0.1,
        77,
    );
    let mut dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    let report = lut_fault_campaign(&mut dev, &w, 60, 150, 42);
    println!(
        "injected {} single-bit LUT upsets, {} detected by randomized",
        report.injected, report.detected
    );
    println!(
        "equivalence ({} silent: dormant planes / don't-care assignments)",
        report.silent
    );
    println!("detection rate: {:.0}%", 100.0 * report.detection_rate());
    println!("\nupsets in RCM decoders or routing state are structural: the");
    println!("connectivity re-derivation (MultiDevice::check_routing) finds them");
    println!("without stimulus.");
}

/// Bit-parallel compiled simulation: 64 vectors per word through the fabric
/// model, measured against the scalar interpreter (`BENCH_sim.json`).
fn sim() {
    use mcfpga::sim::{lut_fault_campaign, KernelOptions, LANES, SUPPORTED_WIDTHS};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    // `experiments sim --optimize` reruns the whole experiment with the
    // kernel optimizer on for the *main* batched pass too (the matrix below
    // always sweeps both settings) and writes BENCH_sim_opt.json, so the
    // gated BENCH_sim.json artifact keeps its optimizer-off main path.
    let optimize_main = std::env::args().any(|a| a == "--optimize");
    header("sim: bit-parallel compiled kernel (64 vectors per word)");
    let arch = ArchSpec::paper_default();
    let circuits = mixed_contexts();
    // The scalar pass below packs a single register file's outputs into
    // lanes, which is only meaningful when the suite carries no state.
    for c in &circuits {
        assert!(
            c.initial_state().bits.is_empty(),
            "mixed suite must be combinational"
        );
    }
    let rec = Recorder::enabled();
    let mut dev = MultiDevice::compile_with(&arch, &circuits, &rec).expect("compile");
    dev.set_kernel_options(KernelOptions::new().with_optimize(optimize_main));
    let n_ctx = circuits.len();
    let arity: Vec<usize> = circuits.iter().map(|c| c.inputs().len()).collect();

    // One deterministic schedule drives both paths: context switches at
    // word boundaries, 64 independent random vectors per word.
    let words = 512usize;
    let mut rng = StdRng::seed_from_u64(2027);
    let mut context = 0usize;
    let schedule: Vec<(usize, Vec<u64>)> = (0..words)
        .map(|_| {
            if rng.gen_bool(0.3) {
                context = rng.gen_range(0..n_ctx);
            }
            (
                context,
                (0..arity[context]).map(|_| rng.next_u64()).collect(),
            )
        })
        .collect();

    // Scalar pass: every lane of every word, one vector per interpreted
    // step. The per-lane outputs are packed back into words so the batched
    // pass can be checked bit-for-bit against them.
    dev.reset();
    let mut bits: Vec<bool> = Vec::new();
    let scalar_start = std::time::Instant::now();
    let scalar_words: Vec<Vec<u64>> = schedule
        .iter()
        .map(|(c, inputs)| {
            dev.switch_context(*c);
            let mut packed: Vec<u64> = Vec::new();
            for lane in 0..LANES {
                bits.clear();
                bits.extend(inputs.iter().map(|w| (w >> lane) & 1 == 1));
                let out = dev.step(&bits);
                if lane == 0 {
                    packed = vec![0u64; out.len()];
                }
                for (w, &b) in packed.iter_mut().zip(&out) {
                    *w |= (b as u64) << lane;
                }
            }
            packed
        })
        .collect();
    let scalar_us = scalar_start.elapsed().as_micros().max(1) as u64;

    // Batched passes over the same words. The first pass is cross-checked
    // against the packed scalar outputs; the repeats amortise timer
    // resolution (a single kernel pass is clock noise).
    let repeats = 16usize;
    dev.reset();
    let batched_start = std::time::Instant::now();
    for rep in 0..repeats {
        for (word, (c, inputs)) in schedule.iter().enumerate() {
            dev.switch_context(*c);
            let out = dev.step_batch(inputs);
            if rep == 0 {
                assert_eq!(
                    out, scalar_words[word],
                    "batched output diverged from packed scalar lanes at word {word}"
                );
            }
        }
    }
    let batched_us = batched_start.elapsed().as_micros().max(1) as u64;

    let vectors = (words * LANES) as u64;
    let scalar_vectors_per_sec = vectors as f64 / (scalar_us as f64 / 1e6);
    let batched_vectors_per_sec = (vectors * repeats as u64) as f64 / (batched_us as f64 / 1e6);
    let batched_words_per_sec = batched_vectors_per_sec / LANES as f64;
    let speedup = batched_vectors_per_sec / scalar_vectors_per_sec;
    rec.set_gauge("sim.scalar_vectors_per_sec", scalar_vectors_per_sec);
    rec.set_gauge("sim.batched_vectors_per_sec", batched_vectors_per_sec);
    rec.set_gauge("sim.batch_speedup", speedup);

    println!("mixed 4-context workload, {words} words x {LANES} lanes = {vectors} vectors:");
    println!(
        "  scalar:  {:>10.3} ms  {:>14.0} vectors/s  ({:.0} cycles/s)",
        scalar_us as f64 / 1e3,
        scalar_vectors_per_sec,
        scalar_vectors_per_sec,
    );
    println!(
        "  batched: {:>10.3} ms  {:>14.0} vectors/s  ({:.0} words/s, {repeats} passes)",
        batched_us as f64 / 1e3 / repeats as f64,
        batched_vectors_per_sec,
        batched_words_per_sec,
    );
    println!("  speedup: {speedup:.1}x  (first batched pass verified against scalar lanes)");

    // Throughput matrix: the streaming runner swept over optimizer setting,
    // chunk width, and thread count. Every cell is verified word-for-word
    // against the width-1 unoptimized serial reference before it is timed;
    // the reference itself is checked against the (scalar-verified) batched
    // step path on every chunk and against true scalar replays on the
    // leading chunks, all 64 lanes.
    let n_total = 2048usize; // narrow chunks per context; divisible by 8
    let mut mrng = StdRng::seed_from_u64(4021);
    let narrow: Vec<Vec<u64>> = (0..n_ctx)
        .map(|c| (0..n_total * arity[c]).map(|_| mrng.next_u64()).collect())
        .collect();
    dev.set_kernel_options(KernelOptions::new());
    let refs: Vec<Vec<u64>> = (0..n_ctx)
        .map(|c| dev.run_throughput(c, &narrow[c], 1, 1))
        .collect();
    let n_outs: Vec<usize> = refs.iter().map(|r| r.len() / n_total).collect();
    let mut reference_divergences = 0usize;
    for c in 0..n_ctx {
        dev.switch_context(c);
        for t in 0..n_total {
            let out = dev.step_batch(&narrow[c][t * arity[c]..][..arity[c]]);
            for (o, &w) in out.iter().enumerate() {
                if refs[c][t * n_outs[c] + o] != w {
                    reference_divergences += 1;
                }
            }
        }
        for t in 0..16 {
            for lane in 0..LANES {
                let bits: Vec<bool> = (0..arity[c])
                    .map(|i| (narrow[c][t * arity[c] + i] >> lane) & 1 == 1)
                    .collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    if ((refs[c][t * n_outs[c] + o] >> lane) & 1 == 1) != b {
                        reference_divergences += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        reference_divergences, 0,
        "width-1 reference diverged from the scalar/batched paths"
    );

    println!("\nthroughput matrix ({n_total} chunks/context, every cell verified, 0 = exact):");
    println!(
        "  {:<9} {:>5} {:>7} {:>10} {:>16} {:>11}",
        "optimizer", "width", "threads", "wall ms", "vectors/s", "divergences"
    );
    let m_repeats = 4usize;
    let mut matrix: Vec<SimMatrixCell> = Vec::new();
    for optimize in [false, true] {
        dev.set_kernel_options(KernelOptions::new().with_optimize(optimize));
        for &width in SUPPORTED_WIDTHS {
            // Interleave: narrow chunk `t*width + w` becomes word `w` of
            // wide chunk `t` — with a combinational suite every chunk word
            // is an independent stream, so this re-chunking is exact.
            let wide: Vec<Vec<u64>> = (0..n_ctx)
                .map(|c| {
                    let ni = arity[c];
                    let mut v = vec![0u64; n_total * ni];
                    for t in 0..n_total / width {
                        for i in 0..ni {
                            for w in 0..width {
                                v[(t * ni + i) * width + w] = narrow[c][(t * width + w) * ni + i];
                            }
                        }
                    }
                    v
                })
                .collect();
            for threads in [1usize, 2] {
                // Verification pass; also warms this cell's kernel variant.
                let mut divergences = 0usize;
                for c in 0..n_ctx {
                    let out = dev.run_throughput(c, &wide[c], width, threads);
                    for t in 0..n_total / width {
                        for o in 0..n_outs[c] {
                            for w in 0..width {
                                if out[(t * n_outs[c] + o) * width + w]
                                    != refs[c][(t * width + w) * n_outs[c] + o]
                                {
                                    divergences += 1;
                                }
                            }
                        }
                    }
                }
                let start = std::time::Instant::now();
                for _ in 0..m_repeats {
                    for (c, wide_c) in wide.iter().enumerate() {
                        let _ = dev.run_throughput(c, wide_c, width, threads);
                    }
                }
                let wall_us = start.elapsed().as_micros().max(1) as u64;
                let cell_vectors = (n_total * LANES * n_ctx * m_repeats) as u64;
                let vectors_per_sec = cell_vectors as f64 / (wall_us as f64 / 1e6);
                println!(
                    "  {:<9} {:>5} {:>7} {:>10.3} {:>16.0} {:>11}",
                    if optimize { "on" } else { "off" },
                    width,
                    threads,
                    wall_us as f64 / 1e3,
                    vectors_per_sec,
                    divergences
                );
                matrix.push(SimMatrixCell {
                    optimize,
                    width,
                    threads,
                    chunks_per_context: n_total,
                    repeats: m_repeats,
                    wall_us,
                    vectors: cell_vectors,
                    vectors_per_sec,
                    divergences,
                });
            }
        }
    }
    let matrix_best_vectors_per_sec = matrix
        .iter()
        .map(|c| c.vectors_per_sec)
        .fold(0.0f64, f64::max);
    rec.set_gauge(
        "sim.matrix_best_vectors_per_sec",
        matrix_best_vectors_per_sec,
    );
    println!(
        "  best: {:.0} vectors/s ({:.1}x the step-batch path)",
        matrix_best_vectors_per_sec,
        matrix_best_vectors_per_sec / batched_vectors_per_sec
    );

    // Per-context optimizer effect on the compiled instruction streams.
    let optimizer: Vec<SimOptimizerCell> = (0..n_ctx)
        .map(|c| {
            let s = dev.kernel_optimize_stats(c).expect("context exists");
            SimOptimizerCell {
                context: c,
                instrs_before: s.instrs_before,
                instrs_after: s.instrs_after,
                word_ops_before: s.word_ops_before,
                word_ops_after: s.word_ops_after,
                folded_operands: s.folded_operands,
                deduped: s.deduped,
                dead: s.dead,
                specialized: s.specialized,
            }
        })
        .collect();
    println!("\nkernel optimizer (per context):");
    for s in &optimizer {
        println!(
            "  ctx {}: instrs {} -> {}, word-ops {} -> {} ({} folded operands, \
             {} deduped, {} dead, {} specialized)",
            s.context,
            s.instrs_before,
            s.instrs_after,
            s.word_ops_before,
            s.word_ops_after,
            s.folded_operands,
            s.deduped,
            s.dead,
            s.specialized
        );
    }
    dev.set_kernel_options(KernelOptions::new().with_optimize(optimize_main));

    // Fault-campaign wall time: the `faults` experiment's exact campaign,
    // now running on per-fault kernel clones fanned across the worker pool.
    let w = workload(
        RandomNetlistParams {
            n_inputs: 6,
            n_gates: 40,
            n_outputs: 6,
            dff_fraction: 0.0,
        },
        4,
        0.1,
        77,
    );
    let mut fault_dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    fault_dev.attach_recorder(&rec);
    let campaign_start = std::time::Instant::now();
    let campaign = lut_fault_campaign(&mut fault_dev, &w, 60, 150, 42);
    let fault_campaign_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nfault campaign: {} upsets x {} words ({} vectors each) in {:.1} ms, \
         {:.0}% detected",
        campaign.injected,
        150,
        150 * LANES,
        fault_campaign_ms,
        100.0 * campaign.detection_rate()
    );

    let bench = SimBench {
        experiment: "sim".into(),
        words,
        lanes: LANES,
        vectors,
        batched_repeats: repeats,
        kernel_optimize: optimize_main,
        scalar_us,
        batched_us,
        scalar_vectors_per_sec,
        batched_vectors_per_sec,
        batched_words_per_sec,
        speedup,
        matrix,
        matrix_best_vectors_per_sec,
        reference_divergences,
        optimizer,
        fault_campaign_ms,
        fault_injected: campaign.injected,
        fault_detected: campaign.detected,
        fault_silent: campaign.silent,
        fault_detection_rate: campaign.detection_rate(),
        report: rec.report("sim"),
    };
    let out_file = if optimize_main {
        "BENCH_sim_opt.json"
    } else {
        "BENCH_sim.json"
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize sim bench");
    std::fs::write(out_file, &json).expect("write sim bench json");
    println!("\nwrote {out_file} ({} bytes)", json.len());
}

/// Machine-readable record of the batched-simulation benchmark
/// (`BENCH_sim.json`): scalar vs 64-lane kernel throughput on the mixed
/// 4-context workload, plus the kernel-based fault-campaign wall time.
#[derive(serde::Serialize)]
struct SimBench {
    experiment: String,
    /// Word-steps in the shared schedule; each word carries `lanes` vectors.
    words: usize,
    lanes: usize,
    vectors: u64,
    /// Timed batched passes over the schedule (the first is verified
    /// bit-for-bit against the scalar outputs).
    batched_repeats: usize,
    /// Whether the *main* scalar/batched passes above ran with the kernel
    /// optimizer on (`experiments sim --optimize`, written to
    /// BENCH_sim_opt.json). The matrix always sweeps both settings.
    kernel_optimize: bool,
    scalar_us: u64,
    batched_us: u64,
    /// Scalar steps are one vector per cycle, so this is also cycles/sec.
    scalar_vectors_per_sec: f64,
    batched_vectors_per_sec: f64,
    /// Kernel word-steps per second (vectors/sec divided by the lane count).
    batched_words_per_sec: f64,
    speedup: f64,
    /// Streaming-runner cells: optimizer x chunk width x threads, each
    /// verified word-for-word against the width-1 unoptimized reference.
    matrix: Vec<SimMatrixCell>,
    matrix_best_vectors_per_sec: f64,
    /// Mismatches of the width-1 reference against the batched step path
    /// (every chunk) and true scalar replays (leading chunks); gated to 0.
    reference_divergences: usize,
    /// Per-context optimizer effect on the compiled instruction streams.
    optimizer: Vec<SimOptimizerCell>,
    fault_campaign_ms: f64,
    fault_injected: usize,
    fault_detected: usize,
    fault_silent: usize,
    fault_detection_rate: f64,
    report: RunReport,
}

/// One throughput-matrix cell of `BENCH_sim.json`: the streaming runner
/// over the mixed suite at a fixed (optimizer, width, threads) setting.
#[derive(serde::Serialize)]
struct SimMatrixCell {
    optimize: bool,
    /// Chunk width in words: 64·width stimulus lanes per step.
    width: usize,
    threads: usize,
    /// Width-1 chunk count per context; a width-W cell runs `.. / W` chunks
    /// over the same re-chunked streams, so vectors are constant per cell.
    chunks_per_context: usize,
    repeats: usize,
    wall_us: u64,
    vectors: u64,
    vectors_per_sec: f64,
    /// Output words differing from the width-1 unoptimized reference
    /// (checked before timing); gated to 0.
    divergences: usize,
}

/// Per-context kernel-optimizer statistics in `BENCH_sim.json`: exact
/// instruction and word-op counts before/after, by pass.
#[derive(serde::Serialize)]
struct SimOptimizerCell {
    context: usize,
    instrs_before: usize,
    instrs_after: usize,
    word_ops_before: usize,
    word_ops_after: usize,
    folded_operands: usize,
    deduped: usize,
    dead: usize,
    specialized: usize,
}

/// The multi-tenant serving benchmark: compile-job throughput vs worker
/// count, cache behaviour under repeat submission, and concurrent sim
/// serving verified against private replays (`BENCH_serve.json`).
fn serve() {
    use mcfpga_serve::{CompileJob, ServeConfig, Server, SimJob};

    header("serve: multi-tenant job serving over the flow + batched kernel");
    let arch = ArchSpec::paper_default();
    // Compile inside jobs stays serial: the serve worker pool is the
    // parallelism under measurement, and nesting the per-context fan-out
    // under it would oversubscribe the machine.
    let opts = CompileOptions::default().with_parallel(false);
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 12 content-distinct compile jobs: 4 rotations of the mixed 4-context
    // suite, 4 adjacent pairs, and the 4 singles.
    let base = mixed_contexts();
    let mut job_sets: Vec<Vec<Netlist>> = Vec::new();
    for r in 0..4 {
        let mut rot = base.clone();
        rot.rotate_left(r);
        job_sets.push(rot);
    }
    for i in 0..4 {
        job_sets.push(vec![base[i].clone(), base[(i + 1) % 4].clone()]);
    }
    for c in &base {
        job_sets.push(vec![c.clone()]);
    }
    let jobs = job_sets.len();

    // Phase 1: open-loop cold-cache throughput at 1 and 4 workers. Every
    // job is submitted up front; the pool drains the queue.
    let submit_all = |server: &Server| -> Vec<_> {
        job_sets
            .iter()
            .map(|set| {
                server
                    .submit_compile(CompileJob::new(arch.clone(), set.clone()).with_options(opts))
                    .expect("queue sized for the full job set")
            })
            .collect()
    };
    let mut cold_elapsed_us = [0u64; 2];
    let mut scaling_server = None;
    for (slot, workers) in [(0usize, 1usize), (1, 4)] {
        let rec = Recorder::enabled();
        let server = Server::with_recorder(
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(2 * jobs),
            &rec,
        );
        let start = std::time::Instant::now();
        let mut hits = 0usize;
        for handle in submit_all(&server) {
            if handle.wait().expect("cold job completes").cache_hit {
                hits += 1;
            }
        }
        cold_elapsed_us[slot] = start.elapsed().as_micros() as u64;
        assert_eq!(hits, 0, "cold cache cannot hit");
        if workers == 4 {
            scaling_server = Some(server);
        }
    }
    let throughput = |us: u64| jobs as f64 / (us as f64 / 1e6);
    let throughput_jobs_per_sec_1w = throughput(cold_elapsed_us[0]);
    let throughput_jobs_per_sec_4w = throughput(cold_elapsed_us[1]);
    let scaling_1_to_4 = throughput_jobs_per_sec_4w / throughput_jobs_per_sec_1w;
    println!(
        "cold compile throughput over {jobs} distinct jobs \
         (available parallelism {available_parallelism}):"
    );
    println!("  1 worker:  {throughput_jobs_per_sec_1w:>8.2} jobs/s");
    println!("  4 workers: {throughput_jobs_per_sec_4w:>8.2} jobs/s  ({scaling_1_to_4:.2}x)");

    // Phase 2: resubmit the identical job set to the warm 4-worker server —
    // every job must come out of the content-addressed cache.
    let warm = scaling_server.expect("4-worker server kept");
    let start = std::time::Instant::now();
    let handles = submit_all(&warm);
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("repeat job completes"))
        .collect();
    let repeat_elapsed_us = start.elapsed().as_micros() as u64;
    let repeat_hits = outcomes.iter().filter(|o| o.cache_hit).count();
    let repeat_cache_hit_rate = repeat_hits as f64 / jobs as f64;
    println!(
        "repeat submission: {repeat_hits}/{jobs} cache hits \
         ({:.1} ms vs {:.1} ms cold)",
        repeat_elapsed_us as f64 / 1e3,
        cold_elapsed_us[1] as f64 / 1e3,
    );
    let scaling_report = warm.report();
    drop(warm);

    // Phase 3: concurrent sim serving. 4 tenants share one compiled design
    // through 4 private sessions, each driving every context with its own
    // word stream; outputs are checked against a private (server-free)
    // replay of the same script.
    let sim_rec = Recorder::enabled();
    let sim_server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
        &sim_rec,
    );
    let sim_sessions = 4usize;
    let cycles_per_job = 16usize;
    let jobs_per_tenant = 8usize;
    let compiled: Vec<_> = (0..sim_sessions)
        .map(|_| {
            sim_server
                .submit_compile(CompileJob::new(arch.clone(), base.clone()).with_options(opts))
                .expect("accepted")
                .wait()
                .expect("compiles")
        })
        .collect();

    let tenant_words = |tenant: usize, job: usize, cycle: usize, input: usize| -> u64 {
        let x = (tenant as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job as u64) << 40)
            .wrapping_add((cycle as u64) << 16)
            .wrapping_add(input as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 31)
    };
    let served: Vec<Vec<Vec<Vec<u64>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = compiled
            .iter()
            .enumerate()
            .map(|(tenant, outcome)| {
                let server = &sim_server;
                scope.spawn(move || {
                    (0..jobs_per_tenant)
                        .map(|job| {
                            let context = job % outcome.design.n_contexts();
                            let n_in = outcome.design.kernel(context).n_inputs();
                            let words = (0..cycles_per_job)
                                .map(|cycle| {
                                    (0..n_in)
                                        .map(|i| tenant_words(tenant, job, cycle, i))
                                        .collect()
                                })
                                .collect();
                            server
                                .submit_sim(SimJob::new(outcome.session, context, words))
                                .expect("accepted")
                                .wait()
                                .expect("sim job completes")
                                .outputs
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    // Private replay per tenant: a fresh MultiDevice driven with the same
    // script must match the served outputs word for word.
    let mut cross_session_divergences = 0u64;
    for (tenant, outputs) in served.iter().enumerate() {
        let mut device = MultiDevice::compile_opts(&arch, &base, &opts, &Recorder::disabled())
            .expect("reference compile");
        for (job, job_outputs) in outputs.iter().enumerate() {
            let context = job % device.n_contexts();
            device.try_switch_context(context).expect("context");
            let n_in = device.kernel(context).expect("context").n_inputs();
            for (cycle, out_words) in job_outputs.iter().enumerate() {
                let words: Vec<u64> = (0..n_in)
                    .map(|i| tenant_words(tenant, job, cycle, i))
                    .collect();
                let expected = device.try_step_batch(&words).expect("reference step");
                if &expected != out_words {
                    cross_session_divergences += 1;
                }
            }
        }
    }
    let sim_jobs = sim_sessions * jobs_per_tenant;
    let sim_report = sim_server.report();
    println!(
        "sim serving: {sim_sessions} tenants x {jobs_per_tenant} jobs x \
         {cycles_per_job} words, {cross_session_divergences} divergences vs private replay"
    );
    assert_eq!(
        cross_session_divergences, 0,
        "sessions leaked register state across tenants"
    );

    let pct = |h: &Option<mcfpga::obs::HistogramEntry>, p50: bool| {
        h.as_ref().map_or(0.0, |h| if p50 { h.p50 } else { h.p99 })
    };
    println!(
        "latency (sim-serving server): wait p50 {:.0} us p99 {:.0} us, \
         service p50 {:.0} us p99 {:.0} us",
        pct(&sim_report.wait_us, true),
        pct(&sim_report.wait_us, false),
        pct(&sim_report.service_us, true),
        pct(&sim_report.service_us, false),
    );

    let bench = ServeBench {
        experiment: "serve".into(),
        available_parallelism,
        jobs,
        cold_elapsed_us_1w: cold_elapsed_us[0],
        cold_elapsed_us_4w: cold_elapsed_us[1],
        throughput_jobs_per_sec_1w,
        throughput_jobs_per_sec_4w,
        scaling_1_to_4,
        repeat_elapsed_us,
        repeat_cache_hit_rate,
        sim_sessions,
        sim_jobs,
        cross_session_divergences,
        wait_p50_us: pct(&sim_report.wait_us, true),
        wait_p99_us: pct(&sim_report.wait_us, false),
        service_p50_us: pct(&sim_report.service_us, true),
        service_p99_us: pct(&sim_report.service_us, false),
        scaling_report,
        sim_report,
        report: sim_rec.report("serve"),
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize serve bench");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json ({} bytes)", json.len());
}

/// Machine-readable record of the serving benchmark (`BENCH_serve.json`).
#[derive(serde::Serialize)]
struct ServeBench {
    experiment: String,
    /// Worker scaling is only meaningful when the host actually has cores;
    /// the regression gate skips the scaling floor below 4.
    available_parallelism: usize,
    /// Content-distinct compile jobs in the cold/repeat phases.
    jobs: usize,
    cold_elapsed_us_1w: u64,
    cold_elapsed_us_4w: u64,
    throughput_jobs_per_sec_1w: f64,
    throughput_jobs_per_sec_4w: f64,
    scaling_1_to_4: f64,
    repeat_elapsed_us: u64,
    /// Fraction of the repeat-phase jobs answered from cache (gated at 1.0).
    repeat_cache_hit_rate: f64,
    sim_sessions: usize,
    sim_jobs: usize,
    /// Served outputs differing from each tenant's private replay (gated at 0).
    cross_session_divergences: u64,
    wait_p50_us: f64,
    wait_p99_us: f64,
    service_p50_us: f64,
    service_p99_us: f64,
    /// Serve metrics of the scaling/repeat server (phases 1-2).
    scaling_report: mcfpga_serve::ServeReport,
    /// Serve metrics of the concurrent sim-serving server (phase 3).
    sim_report: mcfpga_serve::ServeReport,
    /// Full span/metric report of the sim-serving recorder.
    report: RunReport,
}

/// The serve-observability benchmark: 4 tenants (one a deliberate
/// aggressor) drive a small worker pool into sustained overload behind a
/// per-tenant in-flight cap, proving that (a) every shed is attributable in
/// both the tenant ledger and the trace ring, (b) each tenant's ledger is
/// exactly conserved, and (c) the aggressor's flood does not starve the
/// victims (`BENCH_serve_obs.json`).
fn serve_obs() {
    use mcfpga::obs::job_trace;
    use mcfpga_serve::{CompileJob, ServeConfig, Server, SimJob, SubmitError, WatermarkAdmission};
    use std::sync::Arc;

    header("serve_obs: per-tenant accounting, correlation, admission control");
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);
    let circuits = mixed_contexts();

    let workers = 2usize;
    let queue_capacity = 32usize;
    let queue_watermark = 24usize;
    let tenant_inflight_cap = 4u64;
    let rounds = 12usize;
    let aggressor_burst = 8usize;
    let victim_cycles = 64usize;
    let aggressor_cycles = 256usize;
    let victims = ["tenant-a", "tenant-b", "tenant-c"];
    let aggressor = "aggressor";

    // Ring sized to hold every event of the run: attribution is only
    // provable when no shed event was evicted (trace_dropped must be 0).
    let rec = Recorder::enabled_with_capacity(1 << 16);
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(workers)
            .with_queue_capacity(queue_capacity)
            .with_admission(Arc::new(
                WatermarkAdmission::default()
                    .with_queue_watermark(queue_watermark)
                    .with_tenant_inflight_cap(tenant_inflight_cap),
            )),
        &rec,
    );

    // One session per tenant over the same design: the first compile is the
    // cache miss, the rest hit and share the artifact.
    let mut sessions = std::collections::BTreeMap::new();
    for (i, tenant) in victims.iter().chain([&aggressor]).enumerate() {
        let outcome = server
            .submit_compile(
                CompileJob::new(arch.clone(), circuits.clone())
                    .with_options(opts)
                    .with_tenant(*tenant),
            )
            .expect("compile accepted")
            .wait()
            .expect("compile completes");
        assert_eq!(outcome.cache_hit, i > 0, "only the first compile misses");
        sessions.insert(tenant.to_string(), outcome);
    }

    let words_for = |tenant_ix: usize, round: usize, n_in: usize, cycles: usize| -> Vec<Vec<u64>> {
        (0..cycles)
            .map(|cycle| {
                (0..n_in)
                    .map(|i| {
                        let x = (tenant_ix as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((round as u64) << 32)
                            .wrapping_add((cycle as u64) << 8)
                            .wrapping_add(i as u64)
                            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        x ^ (x >> 31)
                    })
                    .collect()
            })
            .collect()
    };

    // Victims submit one job at a time and wait for it (closed loop,
    // in-flight ≤ 1); the aggressor fires open-loop bursts above its cap
    // and only then drains. One victim job id is kept for the correlation
    // proof below.
    let mut traced_job = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (vix, tenant) in victims.iter().enumerate() {
            let server = &server;
            let outcome = &sessions[*tenant];
            let words_for = &words_for;
            handles.push(scope.spawn(move || {
                let mut last_job = 0u64;
                for round in 0..rounds {
                    let context = round % outcome.design.n_contexts();
                    let n_in = outcome.design.kernel(context).n_inputs();
                    let handle = server
                        .submit_sim(
                            SimJob::new(
                                outcome.session,
                                context,
                                words_for(vix, round, n_in, victim_cycles),
                            )
                            .with_tenant(*tenant),
                        )
                        .expect("victim in-flight stays below every admission bound");
                    last_job = handle.job().raw();
                    handle.wait().expect("victim job completes");
                }
                last_job
            }));
        }
        let aggressor_handle = {
            let server = &server;
            let outcome = &sessions[aggressor];
            let words_for = &words_for;
            scope.spawn(move || {
                let mut sheds = 0u64;
                let mut rejected = 0u64;
                for round in 0..rounds {
                    let mut burst = Vec::new();
                    for b in 0..aggressor_burst {
                        let context = (round + b) % outcome.design.n_contexts();
                        let n_in = outcome.design.kernel(context).n_inputs();
                        match server.submit_sim(
                            SimJob::new(
                                outcome.session,
                                context,
                                words_for(100 + b, round, n_in, aggressor_cycles),
                            )
                            .with_tenant(aggressor),
                        ) {
                            Ok(h) => burst.push(h),
                            Err(SubmitError::Shed { .. }) => sheds += 1,
                            Err(_) => rejected += 1,
                        }
                    }
                    for h in burst {
                        h.wait().expect("accepted aggressor job completes");
                    }
                }
                (sheds, rejected)
            })
        };
        let mut last_victim_jobs = Vec::new();
        for h in handles {
            last_victim_jobs.push(h.join().expect("victim thread"));
        }
        traced_job = last_victim_jobs.first().copied();
        let (client_sheds, client_rejected) = aggressor_handle.join().expect("aggressor thread");
        println!(
            "aggressor client saw {client_sheds} sheds, {client_rejected} hard rejections \
             over {rounds} bursts of {aggressor_burst}"
        );
    });

    // Every handle has been waited: the server is drained, so each tenant's
    // ledger must balance with zero in flight.
    let report = server.report();
    let snapshot = server.snapshot();
    let events = rec.trace_events();
    assert_eq!(rec.trace_dropped(), 0, "ring sized for the full run");

    // Attribution: every shed counted anywhere must be reconstructable from
    // the trace ring with a job id and tenant label attached.
    let mut traced_sheds: std::collections::BTreeMap<String, u64> = Default::default();
    let mut untagged_shed_events = 0u64;
    for e in events.iter().filter(|e| e.name == "job_shed") {
        match (&e.job, &e.tenant) {
            (Some(_), Some(t)) => *traced_sheds.entry(t.clone()).or_insert(0) += 1,
            _ => untagged_shed_events += 1,
        }
    }
    let mut unattributed_sheds = untagged_shed_events;
    let mut all_conserved = true;
    let mut tenant_rows = Vec::new();
    let mut victim_submitted = 0u64;
    let mut victim_completed = 0u64;
    for row in &report.tenants {
        let traced = traced_sheds.get(&row.tenant).copied().unwrap_or(0);
        unattributed_sheds += row.stats.shed.abs_diff(traced);
        let conserved = row.stats.is_conserved() && row.stats.inflight == 0;
        all_conserved &= conserved;
        if victims.contains(&row.tenant.as_str()) {
            victim_submitted += row.stats.submitted;
            victim_completed += row.stats.completed;
        }
        let pct = |h: &Option<mcfpga::obs::HistogramEntry>, p50: bool| {
            h.as_ref().map_or(0.0, |h| if p50 { h.p50 } else { h.p99 })
        };
        println!(
            "{:<10} submitted {:>3} completed {:>3} shed {:>3} (traced {:>3}) \
             wait p99 {:>8.0} us conserved {}",
            row.tenant,
            row.stats.submitted,
            row.stats.completed,
            row.stats.shed,
            traced,
            pct(&row.wait_us, false),
            conserved,
        );
        tenant_rows.push(ServeObsTenant {
            tenant: row.tenant.clone(),
            stats: row.stats.clone(),
            traced_sheds: traced,
            conserved,
            cache_hit_rate: row.stats.cache_hit_rate(),
            wait_p50_us: pct(&row.wait_us, true),
            wait_p99_us: pct(&row.wait_us, false),
            service_p50_us: pct(&row.service_us, true),
            service_p99_us: pct(&row.service_us, false),
        });
    }
    let aggressor_isolation_ratio = if victim_submitted == 0 {
        0.0
    } else {
        victim_completed as f64 / victim_submitted as f64
    };
    assert!(all_conserved, "per-tenant conservation violated");
    assert_eq!(unattributed_sheds, 0, "every shed must be attributable");
    assert!(report.jobs_shed >= 1, "the aggressor must get shed");

    // Correlation proof: rebuild one victim job's span tree from the shared
    // ring and check the full request path is present.
    let traced_job = traced_job.expect("a victim job ran");
    let trace = job_trace(&events, traced_job).expect("victim job left correlated events");
    let correlation = ServeObsCorrelation {
        job: traced_job,
        tenant: trace.tenant.clone().unwrap_or_default(),
        n_events: trace.n_events,
        has_submit: trace.instant("job_submitted").is_some(),
        has_dequeue: trace.instant("job_dequeued").is_some(),
        has_sim_span: trace.span("sim_job").is_some(),
        has_sim_batch: trace.instant("sim_batch").is_some(),
    };
    assert!(
        correlation.has_submit && correlation.has_dequeue && correlation.has_sim_span,
        "correlated request path incomplete: {correlation:?}"
    );
    println!(
        "correlated job {traced_job} ({}): {} events, submit/dequeue/span/batch all present",
        correlation.tenant, correlation.n_events
    );
    println!(
        "sheds {} (watermark {} inflight-cap {}), isolation ratio {:.3}, \
         queue hwm {}, trace events {} (0 dropped)",
        report.jobs_shed,
        report.shed_queue_watermark,
        report.shed_tenant_inflight,
        aggressor_isolation_ratio,
        report.queue_depth_hwm,
        events.len(),
    );

    let bench = ServeObsBench {
        experiment: "serve_obs".into(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers,
        queue_capacity,
        queue_watermark,
        tenant_inflight_cap,
        rounds,
        aggressor_burst,
        victim_cycles,
        aggressor_cycles,
        tenants: tenant_rows,
        shed_total: report.jobs_shed,
        shed_queue_watermark: report.shed_queue_watermark,
        shed_tenant_inflight: report.shed_tenant_inflight,
        shed_policy: report.shed_policy,
        unattributed_sheds,
        all_conserved,
        aggressor_isolation_ratio,
        queue_depth_hwm: report.queue_depth_hwm,
        trace_events: events.len(),
        trace_dropped: report.trace_dropped,
        correlation,
        snapshot,
        serve_report: report,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize serve_obs bench");
    std::fs::write("BENCH_serve_obs.json", &json).expect("write BENCH_serve_obs.json");
    println!("\nwrote BENCH_serve_obs.json ({} bytes)", json.len());
}

/// One tenant row of `BENCH_serve_obs.json`.
#[derive(Debug, serde::Serialize)]
struct ServeObsTenant {
    tenant: String,
    stats: mcfpga_serve::TenantStats,
    /// `job_shed` trace events attributed to this tenant (gated equal to
    /// `stats.shed`).
    traced_sheds: u64,
    /// `submitted == completed + failed + expired + rejected + shed` with
    /// zero in flight after drain (gated true).
    conserved: bool,
    cache_hit_rate: f64,
    wait_p50_us: f64,
    wait_p99_us: f64,
    service_p50_us: f64,
    service_p99_us: f64,
}

/// The correlation proof embedded in `BENCH_serve_obs.json`: one victim
/// job's request path reconstructed from the shared trace ring.
#[derive(Debug, serde::Serialize)]
struct ServeObsCorrelation {
    job: u64,
    tenant: String,
    n_events: usize,
    has_submit: bool,
    has_dequeue: bool,
    has_sim_span: bool,
    has_sim_batch: bool,
}

/// Machine-readable record of the observability benchmark
/// (`BENCH_serve_obs.json`).
#[derive(Debug, serde::Serialize)]
struct ServeObsBench {
    experiment: String,
    available_parallelism: usize,
    workers: usize,
    queue_capacity: usize,
    queue_watermark: usize,
    tenant_inflight_cap: u64,
    rounds: usize,
    aggressor_burst: usize,
    victim_cycles: usize,
    aggressor_cycles: usize,
    tenants: Vec<ServeObsTenant>,
    shed_total: u64,
    shed_queue_watermark: u64,
    shed_tenant_inflight: u64,
    shed_policy: u64,
    /// Sheds not reconstructable from the trace ring with job + tenant
    /// attribution (gated at 0).
    unattributed_sheds: u64,
    /// Every tenant ledger balanced with zero in flight (gated true).
    all_conserved: bool,
    /// Victim jobs completed / victim jobs submitted (gated ≥ 0.9): the
    /// aggressor's overload must not starve well-behaved tenants.
    aggressor_isolation_ratio: f64,
    queue_depth_hwm: u64,
    trace_events: usize,
    trace_dropped: u64,
    correlation: ServeObsCorrelation,
    snapshot: mcfpga_serve::HealthSnapshot,
    serve_report: mcfpga_serve::ServeReport,
}

/// Ablations: switch off each design ingredient and show what it bought.
fn ablations() {
    header("ablations: what each design ingredient buys");
    let arch = ArchSpec::paper_default();
    let ctx = arch.context_id();

    // 1. Decoder sharing across identical columns (Table 1's G2 = G4).
    let dev = MultiDevice::compile(&arch, &mixed_contexts()).expect("compile");
    let columns = dev.switch_usage().columns();
    let per_column: usize = columns
        .iter()
        .map(|c| synthesize(*c, ctx).cost().n_ses)
        .sum();
    let mut unique: Vec<u32> = columns.iter().map(|c| c.mask()).collect();
    unique.sort_unstable();
    unique.dedup();
    let shared: usize = unique
        .iter()
        .map(|&m| synthesize(ConfigColumn::from_mask(m, 4), ctx).cost().n_ses)
        .sum();
    println!(
        "decoder sharing (mixed 4-circuit device, {} columns):",
        columns.len()
    );
    println!(
        "  without sharing: {per_column} SEs; with sharing: {shared} SEs ({:.1}x)",
        per_column as f64 / shared as f64
    );

    // 2. Inverting input controllers: without them a complemented ID bit
    // costs an extra SE.
    let mut with_inv = 0usize;
    let mut without_inv = 0usize;
    for col in ConfigColumn::enumerate_all(4) {
        let cost = synthesize(col, ctx).cost();
        with_inv += cost.n_ses;
        without_inv += cost.n_ses + cost.n_inverters;
    }
    println!("\ninverting input controllers (sum over all 16 patterns):");
    println!("  with controllers: {with_inv} SEs; inverter-per-SE instead: {without_inv} SEs");

    // 3. Double-length lines: routed critical delay vs DL track count.
    println!("\ndouble-length line budget (add8, same placement seed):");
    println!("  {:>9} {:>14}", "DL tracks", "critical delay");
    for dl in [0usize, 1, 2, 4] {
        let mut a = ArchSpec::paper_default();
        a.routing.double_length_tracks = dl;
        let dev = MultiDevice::compile(&a, &[library::adder(8)]).expect("compile");
        println!("  {dl:>9} {:>14.1}", dev.critical_delay());
    }

    // 4. LUT deduplication (the paper's future-work mapping optimisation).
    use mcfpga::map::dedupe_luts;
    println!("\nLUT deduplication over the circuit suite (k = 4):");
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for circuit in suite() {
        let mapped = map_netlist(&circuit, 4).unwrap();
        let (_, stats) = dedupe_luts(&mapped);
        total_before += stats.before;
        total_after += stats.after;
    }
    println!(
        "  {total_before} LUTs -> {total_after} LUTs ({:.1}% removed)",
        100.0 * (total_before - total_after) as f64 / total_before as f64
    );
}

/// Temporal partitioning: hardware reuse in time (the DPGA premise, §1).
fn temporal() {
    use mcfpga::map::{temporal_partition, TemporalExecutor};
    use mcfpga::place::PlacementProblem;
    use mcfpga::sim::{FabricTemporalExecutor, MultiDevice};
    header("temporal: circuits bigger than the array, run across contexts");
    let arch = ArchSpec::paper_default().with_grid(3, 3);
    let capacity = arch.n_logic_blocks() * arch.lut.outputs;
    println!(
        "fabric: 3x3 logic blocks = {capacity} LUT slots per context, {} contexts\n",
        arch.n_contexts
    );
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>10} {:>9}",
        "circuit", "LUTs", "fits 1?", "stages", "registers", "verified"
    );
    for circuit in [
        library::multiplier(3),
        library::alu(4),
        library::subtractor(6),
        library::barrel_shifter(8),
    ] {
        let mapped = map_netlist(&circuit, arch.lut.min_inputs).unwrap();
        let fits_single = PlacementProblem::from_mapped(&mapped, &arch).is_ok();
        let design = match temporal_partition(&mapped, capacity) {
            Ok(d) => d,
            Err(e) => {
                println!("{:<12} {:>6} {e}", circuit.name(), mapped.luts.len());
                continue;
            }
        };
        if design.n_stages() > arch.n_contexts {
            println!(
                "{:<12} {:>6} {:>8} needs {} stages (> {} contexts)",
                circuit.name(),
                mapped.luts.len(),
                if fits_single { "yes" } else { "no" },
                design.n_stages(),
                arch.n_contexts
            );
            continue;
        }
        let stage_netlists: Vec<_> = design.stages.iter().map(|s| s.netlist.clone()).collect();
        let n_regs = design.n_registers;
        let n_stages = design.n_stages();
        let ok = match MultiDevice::compile_mapped(&arch, &stage_netlists) {
            Ok(mut dev) => {
                let mut fabric = FabricTemporalExecutor::new(&mut dev, design.clone());
                let mut reference = TemporalExecutor::new(design);
                let n_in = circuit.inputs().len();
                let mut all_ok = true;
                for trial in 0..30u64 {
                    let inputs: Vec<bool> =
                        (0..n_in).map(|i| (trial >> (i % 16)) & 1 == 1).collect();
                    let expect = circuit.eval_comb(&inputs).unwrap();
                    let got = fabric.run(&inputs);
                    let refr = reference.run(&inputs);
                    all_ok &= got == expect && refr == expect;
                }
                all_ok
            }
            Err(e) => {
                println!("{:<12} compile failed: {e}", circuit.name());
                continue;
            }
        };
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>10} {:>9}",
            circuit.name(),
            mapped.luts.len(),
            if fits_single { "yes" } else { "no" },
            n_stages,
            n_regs,
            if ok { "ok" } else { "FAIL" }
        );
    }
    println!("\na 3x3 array cannot hold mul3 or alu4 in one context; split across");
    println!("contexts with transfer registers, both run bit-exactly — the DPGA");
    println!("\"reuse limited hardware in time\" premise, on the compiled fabric.");
}

/// Minimum channel width per circuit (what the per-track RCM saving
/// multiplies with).
fn channel_width() {
    use mcfpga::place::{place, AnnealOptions, PlacementProblem};
    use mcfpga::route::{min_channel_width, nets_from_placement, RouteOptions};
    header("channel_width: minimum routable tracks per channel");
    let arch = ArchSpec::paper_default();
    println!("{:<12} {:>11} {:>10}", "circuit", "min tracks", "DL tracks");
    for circuit in [
        library::adder(4),
        library::parity(8),
        library::comparator(4),
        library::multiplier(3),
        library::alu(4),
        library::barrel_shifter(8),
    ] {
        let mapped = map_netlist(&circuit, arch.lut.min_inputs).unwrap();
        let problem = PlacementProblem::from_mapped(&mapped, &arch).unwrap();
        let placement = place(&problem, &AnnealOptions::default());
        let nets = nets_from_placement(&problem, &placement);
        match min_channel_width(&arch, &nets, 24, &RouteOptions::default()) {
            Some(r) => println!(
                "{:<12} {:>11} {:>10}",
                circuit.name(),
                r.min_tracks,
                r.double_tracks
            ),
            None => println!("{:<12} unroutable within 24 tracks", circuit.name()),
        }
    }
    println!("\nevery multi-context switch saved per track scales with this width;");
    println!("the paper-default channel (8 tracks) comfortably covers the suite.");
}

/// Delta compilation: a changed request served against a cached near-match
/// base recompiles only the changed contexts, and the result is proven
/// bit-identical to a cold compile at every change rate
/// (`BENCH_delta.json`). This is the serving-layer analogue of the paper's
/// 5% inter-context change assumption: when little configuration data
/// changes, little compile work should be paid.
fn delta() {
    use mcfpga_serve::{CompileJob, CompiledDesign, ServeConfig, Server};

    header("delta: near-match cache + per-context incremental recompilation");
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);

    // A 4-context workload of independent random sequential netlists — big
    // enough that skipped contexts represent real compile work.
    let params = RandomNetlistParams {
        n_inputs: 8,
        n_gates: 72,
        n_outputs: 8,
        dff_fraction: 0.25,
    };
    let n_contexts = 4usize;
    let base: Vec<Netlist> = (0..n_contexts)
        .map(|c| random_netlist(params, 0xD17A + c as u64))
        .collect();

    let t = std::time::Instant::now();
    let base_design = CompiledDesign::compile(&arch, &base, &opts).expect("base compiles");
    let base_compile_us = t.elapsed().as_micros() as u64;
    println!(
        "base workload: {n_contexts} contexts x {} gates, cold compile {:.1} ms",
        params.n_gates,
        base_compile_us as f64 / 1e3
    );

    // Perturb exactly one context at three change regimes: a single
    // substituted LUT, the paper's 5% change assumption, and a heavy 50%
    // rewrite. `perturb_netlist` is probabilistic per gate, so seeds are
    // searched until the requested amount of change actually materializes.
    let changed_ctx = 2usize;
    let gates_total = base[changed_ctx].n_gates();
    let diff = |a: &Netlist, b: &Netlist| {
        a.gates()
            .iter()
            .zip(b.gates())
            .filter(|(x, y)| x != y)
            .count()
    };
    let perturbed_with = |frac: f64, seed: u64, want: &dyn Fn(usize) -> bool| {
        (seed..)
            .find_map(|s| {
                let p = perturb_netlist(&base[changed_ctx], frac, s);
                want(diff(&base[changed_ctx], &p)).then_some(p)
            })
            .expect("some seed yields the requested change")
    };
    let cases: [(&str, f64, Netlist); 3] = [
        (
            "1lut",
            1.0 / gates_total as f64,
            perturbed_with(1.0 / gates_total as f64, 1, &|d| d == 1),
        ),
        ("5pct", 0.05, perturbed_with(0.05, 11, &|d| d > 0)),
        ("50pct", 0.5, perturbed_with(0.5, 23, &|d| d > 0)),
    ];

    // Bit-identity is checked in-experiment, not just in tests: any
    // divergence between the delta artifact and a cold compile of the same
    // request invalidates every timing below.
    let bit_identical = |a: &CompiledDesign, b: &CompiledDesign| {
        a.n_contexts() == b.n_contexts()
            && (0..a.n_contexts()).all(|c| {
                a.kernel(c) == b.kernel(c) && a.initial_registers(c) == b.initial_registers(c)
            })
            && a.fingerprint() == b.fingerprint()
    };

    let reps = 3usize;
    let mut points = Vec::new();
    let mut divergences = 0u64;
    let mut speedup_at_5pct = 0.0f64;
    for (label, change_rate, variant_ctx) in &cases {
        let mut variant = base.clone();
        variant[changed_ctx] = variant_ctx.clone();
        let gates_changed = diff(&base[changed_ctx], variant_ctx);

        let mut cold_us = u64::MAX;
        let mut delta_us = u64::MAX;
        let mut cold_design = None;
        let mut delta_outcome = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let cold = CompiledDesign::compile(&arch, &variant, &opts).expect("cold compiles");
            cold_us = cold_us.min(t.elapsed().as_micros() as u64);
            cold_design = Some(cold);

            let t = std::time::Instant::now();
            let out = CompiledDesign::delta_compile_with(
                &arch,
                &variant,
                &opts,
                &Recorder::disabled(),
                &base_design,
                None,
            )
            .expect("delta compiles");
            delta_us = delta_us.min(t.elapsed().as_micros() as u64);
            delta_outcome = Some(out);
        }
        let cold = cold_design.expect("reps > 0");
        let (delta_design, stats) = delta_outcome.expect("reps > 0");
        if !bit_identical(&delta_design, &cold) {
            divergences += 1;
        }

        let speedup = cold_us as f64 / delta_us.max(1) as f64;
        if *label == "5pct" {
            speedup_at_5pct = speedup;
        }
        println!(
            "{label:>5} ({gates_changed:>2}/{gates_total} gates): cold {:>8.1} ms, \
             delta {:>7.1} ms ({speedup:.1}x), {}/{} contexts reused \
             ({} placements, {} routes)",
            cold_us as f64 / 1e3,
            delta_us as f64 / 1e3,
            stats.contexts_reused,
            stats.contexts_total,
            stats.placements_reused,
            stats.routes_reused,
        );
        points.push(DeltaPoint {
            label: (*label).into(),
            change_rate: *change_rate,
            gates_changed,
            gates_total,
            cold_us,
            delta_us,
            speedup,
            contexts_total: stats.contexts_total,
            contexts_reused: stats.contexts_reused,
            placements_reused: stats.placements_reused,
            routes_reused: stats.routes_reused,
        });
    }
    assert_eq!(
        divergences, 0,
        "delta-compiled artifacts diverged from cold compiles"
    );

    // The same regimes through a live server: the base populates the cache,
    // each variant must come back as a near hit on the delta path.
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(8),
        &rec,
    );
    server
        .submit_compile(CompileJob::new(arch.clone(), base.clone()).with_options(opts))
        .expect("accepted")
        .wait()
        .expect("base compiles");
    let mut serve_near_hits = 0usize;
    for (_, _, variant_ctx) in &cases {
        let mut variant = base.clone();
        variant[changed_ctx] = variant_ctx.clone();
        let outcome = server
            .submit_compile(CompileJob::new(arch.clone(), variant).with_options(opts))
            .expect("accepted")
            .wait()
            .expect("variant compiles");
        if outcome.delta.is_some() {
            serve_near_hits += 1;
        }
    }
    let serve_report = server.report();
    println!(
        "served: {serve_near_hits}/{} variants took the delta path \
         ({} contexts reused across them)",
        cases.len(),
        serve_report.delta_contexts_reused
    );
    assert_eq!(
        serve_near_hits,
        cases.len(),
        "every variant must near-hit the cached base"
    );

    let bench = DeltaBench {
        experiment: "delta".into(),
        n_contexts,
        gates_per_context: params.n_gates,
        base_compile_us,
        points,
        divergences,
        speedup_at_5pct,
        serve_near_hits,
        serve_report,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize delta bench");
    std::fs::write("BENCH_delta.json", &json).expect("write BENCH_delta.json");
    println!("\nwrote BENCH_delta.json ({} bytes)", json.len());
}

/// One change-rate point of the delta-compilation benchmark.
#[derive(serde::Serialize)]
struct DeltaPoint {
    label: String,
    /// Requested per-gate substitution probability.
    change_rate: f64,
    /// Gates that actually differ between base and variant context.
    gates_changed: usize,
    gates_total: usize,
    /// Cold compile of the full variant workload (min over reps).
    cold_us: u64,
    /// Delta compile against the cached base (min over reps).
    delta_us: u64,
    /// `cold_us / delta_us` — gated ≥ 3.0 at the 5% point.
    speedup: f64,
    contexts_total: usize,
    /// Contexts whose netlist hash matched the base, reused verbatim.
    contexts_reused: usize,
    /// Changed contexts whose placement survived the equality gate.
    placements_reused: usize,
    /// Changed contexts whose routing survived the equality gate.
    routes_reused: usize,
}

/// Fabric observability: signal-probe overhead and lane-exactness against a
/// scalar replay, the per-LUT activity census and its power-proxy ranking,
/// per-context congestion hot spots, and the context-switch energy model at
/// the paper's 5% change-rate point (`BENCH_probe.json`).
fn probe() {
    use mcfpga::sim::{ProbeSet, LANES};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    header("probe: signal probes, activity census, congestion, switch energy");
    let arch = ArchSpec::paper_default();
    let circuits = mixed_contexts();
    // The scalar replay below packs a single register file's outputs into
    // lanes, which is only meaningful when the suite carries no state.
    for c in &circuits {
        assert!(
            c.initial_state().bits.is_empty(),
            "mixed suite must be combinational"
        );
    }
    let rec = Recorder::enabled();
    let mut dev = MultiDevice::compile_with(&arch, &circuits, &rec).expect("compile");
    let n_ctx = circuits.len();
    let arity: Vec<usize> = circuits.iter().map(|c| c.inputs().len()).collect();

    // The sim experiment's exact deterministic schedule (same seed, same
    // switch probability).
    let words = 512usize;
    let mut rng = StdRng::seed_from_u64(2027);
    let mut context = 0usize;
    let schedule: Vec<(usize, Vec<u64>)> = (0..words)
        .map(|_| {
            if rng.gen_bool(0.3) {
                context = rng.gen_range(0..n_ctx);
            }
            (
                context,
                (0..arity[context]).map(|_| rng.next_u64()).collect(),
            )
        })
        .collect();

    // Scalar replay: every lane of every word through the interpreted
    // device, outputs packed back into words — the reference the probe
    // rings are checked against bit-for-bit.
    dev.reset();
    let mut bits: Vec<bool> = Vec::new();
    let scalar_words: Vec<Vec<u64>> = schedule
        .iter()
        .map(|(c, inputs)| {
            dev.switch_context(*c);
            let mut packed: Vec<u64> = Vec::new();
            for lane in 0..LANES {
                bits.clear();
                bits.extend(inputs.iter().map(|w| (w >> lane) & 1 == 1));
                let out = dev.step(&bits);
                if lane == 0 {
                    packed = vec![0u64; out.len()];
                }
                for (w, &b) in packed.iter_mut().zip(&out) {
                    *w |= (b as u64) << lane;
                }
            }
            packed
        })
        .collect();

    // Phase 1: the disabled path — no probes armed, no census — against a
    // never-probed twin compiled from the same circuits with the same
    // recorder kind. Both time the same `try_step_batch_into`; their trials
    // interleave, best of 5 each, so machine noise hits both numbers alike
    // and the regression gate can hold their ratio. A single 16-pass block
    // is only ~0.5 ms of work.
    let repeats = 16usize;
    let trials = 5usize;
    let time_pass = |dev: &mut MultiDevice| -> u64 {
        dev.reset();
        let start = std::time::Instant::now();
        for _ in 0..repeats {
            for (c, inputs) in &schedule {
                dev.switch_context(*c);
                dev.step_batch(inputs);
            }
        }
        start.elapsed().as_micros().max(1) as u64
    };
    let mut twin =
        MultiDevice::compile_with(&arch, &circuits, &Recorder::enabled()).expect("compile twin");
    let (mut disabled_us, mut plain_us) = (u64::MAX, u64::MAX);
    for _ in 0..trials {
        disabled_us = disabled_us.min(time_pass(&mut dev));
        plain_us = plain_us.min(time_pass(&mut twin));
    }
    let vectors = (words * LANES) as u64;
    let per_sec = |us: u64| (vectors * repeats as u64) as f64 / (us as f64 / 1e6);
    let probe_disabled_vectors_per_sec = per_sec(disabled_us);
    let plain_batched_vectors_per_sec = per_sec(plain_us);
    println!(
        "disabled path: {words} words x {LANES} lanes x {repeats} passes, \
         {probe_disabled_vectors_per_sec:.0} vectors/s (no probes, no census); \
         never-probed twin {plain_batched_vectors_per_sec:.0} vectors/s"
    );

    // Phase 2: arm every context's primary outputs and validate the rings
    // word-for-word — one u64 word compares all 64 lanes at once — against
    // the scalar packs. Capacity covers the whole schedule, so nothing drops.
    for c in 0..n_ctx {
        let names = dev.probe_signals(c).expect("context");
        let n_outs = dev.n_outputs(c).expect("context");
        let mut set = ProbeSet::new().with_capacity(words);
        for n in &names[..n_outs] {
            set = set.tap(n);
        }
        dev.arm_probes(c, &set).expect("output names resolve");
    }
    dev.reset();
    for (c, inputs) in &schedule {
        dev.switch_context(*c);
        dev.step_batch(inputs);
    }
    let mut probe_divergences = 0u64;
    let mut probe_words_checked = 0u64;
    for c in 0..n_ctx {
        let expected: Vec<&Vec<u64>> = schedule
            .iter()
            .zip(&scalar_words)
            .filter(|((sc, _), _)| *sc == c)
            .map(|(_, w)| w)
            .collect();
        for (o, cap) in dev.probe_captures(c).expect("context").iter().enumerate() {
            assert_eq!(cap.dropped, 0, "ring sized for the schedule");
            assert_eq!(cap.samples.len(), expected.len(), "one sample per word");
            for (word, &sample) in cap.samples.iter().enumerate() {
                probe_words_checked += 1;
                if sample != expected[word][o] {
                    probe_divergences += 1;
                }
            }
        }
    }
    println!(
        "probe validation: {probe_words_checked} sampled words x {LANES} lanes, \
         {probe_divergences} divergences vs scalar replay"
    );
    assert_eq!(
        probe_divergences, 0,
        "probes diverged from the scalar replay"
    );
    let vcd_bytes = dev
        .probe_waveform(0, Some(0))
        .expect("context")
        .to_vcd()
        .len();

    // Phase 3: the armed path, timed with the same probes still live.
    let armed_us = (0..trials)
        .map(|_| time_pass(&mut dev))
        .min()
        .expect("trials > 0");
    let probe_armed_vectors_per_sec = per_sec(armed_us);
    let armed_overhead = 1.0 - probe_armed_vectors_per_sec / probe_disabled_vectors_per_sec;
    println!(
        "armed path:    {probe_armed_vectors_per_sec:.0} vectors/s \
         ({:.1}% overhead with every output probed)",
        100.0 * armed_overhead
    );

    // Phase 4: activity census over exactly one schedule pass (probes
    // disarmed), so the seeded ranks are re-derivable and gate-able.
    for c in 0..n_ctx {
        dev.disarm_probes(c).expect("context");
    }
    dev.enable_activity_census();
    dev.reset();
    for (c, inputs) in &schedule {
        dev.switch_context(*c);
        dev.step_batch(inputs);
    }
    let top_n = 8usize;
    let mut activity_top: Vec<ActivityRank> = Vec::new();
    let mut toggle_rates: Vec<f64> = Vec::new();
    let mut census_toggles_total = 0u64;
    println!("\nactivity census (top 5 LUTs of context 0 by power proxy):");
    for c in 0..n_ctx {
        let report = dev.activity_census(c).expect("context");
        census_toggles_total += report.toggles_total;
        toggle_rates.push(dev.toggle_rate(c));
        let ranked = report.ranked();
        if c == 0 {
            for r in ranked.iter().take(5) {
                println!(
                    "  lut{:<4} toggle rate {:.3}  fanout {}  proxy {:.3}",
                    r.lut, r.toggle_rate, r.fanout, r.power_proxy
                );
            }
        }
        activity_top.push(ActivityRank {
            context: c,
            top_luts: ranked.iter().take(top_n).map(|r| r.lut).collect(),
        });
    }

    // Congestion hot spots, one per programmed context.
    println!("\ncongestion (hottest edge per context):");
    let congestion: Vec<CongestionPoint> = dev
        .congestion_maps()
        .iter()
        .enumerate()
        .map(|(c, m)| {
            let hottest = m.hottest(1);
            let point = CongestionPoint {
                context: c,
                edges_used: m.edges.len(),
                peak_utilization: m.peak_utilization(),
                hottest_edge: hottest.first().map_or(0, |e| e.edge),
            };
            println!(
                "  context {c}: {} edges used, peak utilization {:.2}, \
                 hottest edge {}",
                point.edges_used, point.peak_utilization, point.hottest_edge
            );
            point
        })
        .collect();

    // Phase 5: context-switch energy. Two points, both proxy pJ under
    // SWITCH_ENERGY_PJ_PER_BIT (not silicon — see EXPERIMENTS.md):
    //   mixed — the run's own cumulative energy, accumulated by the main
    //   device across every pass above (four unrelated circuits, so most
    //   switch columns flip);
    //   5% point — the paper's operating regime: a structure-preserving
    //   workload compiled aligned (shared placement/routing), where
    //   redundant columns make switches nearly free. Bits flipped per
    //   switch fall straight out of the switch-column patterns.
    let mixed_energy = dev.reconfig_energy();
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 99);
    let edev = MultiDevice::compile_aligned(&arch, &w).expect("compile 5% workload");
    let columns = edev.switch_usage().columns();
    let energy_change_rate = ColumnSetStats::measure(&columns, arch.context_id()).change_rate;
    let energy_switches = 64u64;
    let mut energy_bits_flipped = 0u64;
    let mut from = 0usize;
    for i in 1..=energy_switches {
        let to = (i % 4) as usize;
        energy_bits_flipped += columns
            .iter()
            .filter(|col| col.value_in(from) != col.value_in(to))
            .count() as u64;
        from = to;
    }
    let energy_pj = mcfpga::sim::switch_energy_pj(energy_bits_flipped);
    let pj_per_switch = |pj: f64, n: u64| pj / n.max(1) as f64;
    println!(
        "\nswitch energy (proxy pJ): mixed run {} switches, {:.1} pJ \
         ({:.2} pJ/switch);",
        mixed_energy.switches,
        mixed_energy.energy_pj,
        pj_per_switch(mixed_energy.energy_pj, mixed_energy.switches)
    );
    println!(
        "  5%-change point: {energy_switches} switches over {} columns, \
         {energy_bits_flipped} bits flipped, {energy_pj:.1} pJ \
         ({:.2} pJ/switch, measured change rate {:.1}%)",
        columns.len(),
        pj_per_switch(energy_pj, energy_switches),
        100.0 * energy_change_rate
    );
    if energy_bits_flipped == 0 {
        println!(
            "  (structure-preserving contexts route identically, so every \
             switch column\n   is constant — the paper's redundancy claim: \
             switching costs nothing here)"
        );
    }

    let bench = ProbeBench {
        experiment: "probe".into(),
        words,
        lanes: LANES,
        vectors,
        repeats,
        disabled_us,
        probe_disabled_vectors_per_sec,
        plain_us,
        plain_batched_vectors_per_sec,
        armed_us,
        probe_armed_vectors_per_sec,
        armed_overhead,
        probe_words_checked,
        probe_divergences,
        vcd_bytes,
        activity_top,
        toggle_rates,
        census_toggles_total,
        congestion,
        mixed_switches: mixed_energy.switches,
        mixed_bits_flipped: mixed_energy.bits_flipped,
        mixed_energy_pj: mixed_energy.energy_pj,
        energy_change_rate,
        energy_switches,
        energy_bits_flipped,
        energy_pj,
        energy_mean_bits_per_switch: energy_bits_flipped as f64 / energy_switches as f64,
        report: rec.report("sim"),
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize probe bench");
    std::fs::write("BENCH_probe.json", &json).expect("write BENCH_probe.json");
    println!("\nwrote BENCH_probe.json ({} bytes)", json.len());
}

/// Machine-readable record of the observability benchmark
/// (`BENCH_probe.json`).
#[derive(serde::Serialize)]
struct ProbeBench {
    experiment: String,
    /// Word-steps in the shared schedule; each word carries `lanes` vectors.
    words: usize,
    lanes: usize,
    vectors: u64,
    /// Timed batched passes per trial (best of 5 trials per phase).
    repeats: usize,
    disabled_us: u64,
    /// Batched throughput with no probes armed and no census — gated within
    /// 5% of `plain_batched_vectors_per_sec`.
    probe_disabled_vectors_per_sec: f64,
    plain_us: u64,
    /// Batched throughput of a never-probed twin device, its trials
    /// interleaved with the disabled path's.
    plain_batched_vectors_per_sec: f64,
    armed_us: u64,
    probe_armed_vectors_per_sec: f64,
    /// `1 - armed/disabled` with every primary output probed.
    armed_overhead: f64,
    /// Probe sample words compared against the scalar replay (each word
    /// covers all 64 lanes at once).
    probe_words_checked: u64,
    /// Sample words differing from the replay (gated at 0).
    probe_divergences: u64,
    /// Size of the context-0 lane-0 VCD export.
    vcd_bytes: usize,
    /// Top-8 LUT ids per context by power proxy, deterministic under the
    /// seeded schedule (gated exact against the baseline).
    activity_top: Vec<ActivityRank>,
    toggle_rates: Vec<f64>,
    census_toggles_total: u64,
    congestion: Vec<CongestionPoint>,
    /// Cumulative switch energy of the mixed run itself (every pass above),
    /// accounted by the main device — four unrelated circuits, so most
    /// switch columns flip on every switch.
    mixed_switches: u64,
    mixed_bits_flipped: u64,
    mixed_energy_pj: f64,
    /// Measured switch-column change rate of the 5% energy workload
    /// (a structure-preserving aligned compile: the paper's regime).
    energy_change_rate: f64,
    energy_switches: u64,
    energy_bits_flipped: u64,
    /// Proxy pJ under SWITCH_ENERGY_PJ_PER_BIT — relative, not silicon.
    energy_pj: f64,
    energy_mean_bits_per_switch: f64,
    report: RunReport,
}

/// One context's top-of-the-census LUT ranking.
#[derive(serde::Serialize)]
struct ActivityRank {
    context: usize,
    top_luts: Vec<usize>,
}

/// One context's congestion summary.
#[derive(serde::Serialize)]
struct CongestionPoint {
    context: usize,
    edges_used: usize,
    peak_utilization: f64,
    hottest_edge: usize,
}

/// Machine-readable record of the delta-compilation benchmark
/// (`BENCH_delta.json`).
#[derive(serde::Serialize)]
struct DeltaBench {
    experiment: String,
    n_contexts: usize,
    gates_per_context: usize,
    base_compile_us: u64,
    points: Vec<DeltaPoint>,
    /// Delta artifacts differing bit-for-bit from cold compiles (gated 0).
    divergences: u64,
    /// Convenience copy of the 5% point's speedup (gated ≥ 3.0).
    speedup_at_5pct: f64,
    /// Variants answered through the near-match delta path (must equal the
    /// number of change regimes).
    serve_near_hits: usize,
    serve_report: mcfpga_serve::ServeReport,
}

/// Scale-out serving: a 5-tenant stateful workload across 3 shards with
/// continuous checkpointing, a live-migration bounce phase, and a mid-run
/// shard kill recovered entirely from the checkpoint store — zero lost
/// sessions and word-identical output against an unkilled reference router
/// (`BENCH_shard.json`).
fn shard() {
    use mcfpga_serve::{CompileJob, ServeConfig, SessionId, ShardRouter, SimJob};
    use std::time::Duration;

    header("shard: checkpoint/restore, live migration, kill + recovery across 3 shards");

    let shards = 3usize;
    let jobs_per_tenant = 8usize;
    let words_per_job = 32usize;
    // The shard kill lands after this many completed rounds.
    let cut_at = 4usize;
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);

    // One distinct two-context stateful design per tenant: placement spreads
    // by fingerprint, and any lost or duplicated step after a migration or
    // recovery changes every subsequent counter/LFSR word.
    let designs: Vec<Vec<Netlist>> = vec![
        vec![library::counter(4), library::lfsr(8, 0x8e)],
        vec![library::counter(6), library::lfsr(8, 0xb8)],
        vec![library::counter(4), library::lfsr(6, 0x33)],
        vec![library::counter(5), library::lfsr(8, 0xa6)],
        vec![library::counter(6), library::lfsr(7, 0x4a)],
        vec![library::counter(8), library::lfsr(6, 0x2f)],
    ];
    let tenants = designs.len();

    let stim_word = |tenant: usize, job: usize, cycle: usize, input: usize| -> u64 {
        let x = (tenant as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job as u64) << 40)
            .wrapping_add((cycle as u64) << 16)
            .wrapping_add(input as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 31)
    };

    #[derive(Default)]
    struct RunStats {
        initial_placement: Vec<usize>,
        migrate_us: Vec<u64>,
        killed_shard: Option<usize>,
        sessions_on_killed: usize,
        sessions_recovered: usize,
        sessions_lost: usize,
        snapshot_bytes: u64,
        snapshots: u64,
        n_sessions_end: usize,
    }

    // One full workload pass. The `kill == false` pass is the unkilled
    // reference the failure-injected pass must match word for word.
    let run_workload = |kill: bool, rec: &Recorder| -> (Vec<Vec<Vec<Vec<u64>>>>, RunStats) {
        let router = ShardRouter::with_recorder(
            shards,
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(64),
            rec,
        );
        let mut stats = RunStats {
            initial_placement: vec![0; shards],
            ..RunStats::default()
        };

        // Compile one design per tenant; each opens that tenant's session.
        let mut sessions: Vec<SessionId> = Vec::new();
        let mut compiled = Vec::new();
        for (t, circuits) in designs.iter().enumerate() {
            let outcome = router
                .submit(
                    CompileJob::new(arch.clone(), circuits.clone())
                        .with_options(opts)
                        .with_tenant(format!("tenant-{t}")),
                )
                .expect("compile accepted")
                .wait()
                .expect("compile completes")
                .into_compile()
                .expect("compile outcome");
            sessions.push(outcome.session);
            compiled.push(outcome.design);
        }
        for &id in &sessions {
            stats.initial_placement[router.session_owner(id).expect("session alive")] += 1;
        }

        let mut outputs: Vec<Vec<Vec<Vec<u64>>>> = vec![Vec::new(); tenants];
        for job in 0..jobs_per_tenant {
            // Submit the whole round through the unified door, then drain
            // with the handle combinators (`map` + `wait_timeout`).
            let handles: Vec<_> = (0..tenants)
                .map(|t| {
                    let context = job % compiled[t].n_contexts();
                    let n_in = compiled[t].kernel(context).n_inputs();
                    let stim = (0..words_per_job)
                        .map(|cycle| (0..n_in).map(|i| stim_word(t, job, cycle, i)).collect())
                        .collect();
                    router
                        .submit(
                            SimJob::new(sessions[t], context, stim)
                                .with_tenant(format!("tenant-{t}")),
                        )
                        .expect("sim accepted")
                        .map(|o| o.into_sim().expect("sim outcome").outputs)
                })
                .collect();
            for (t, handle) in handles.into_iter().enumerate() {
                let out = loop {
                    if let Some(done) = handle.wait_timeout(Duration::from_millis(200)) {
                        break done.expect("sim completes");
                    }
                };
                outputs[t].push(out);
            }
            // Continuous checkpointing: after every completed round each
            // session's latest state lands in the router's snapshot store —
            // the recovery points a kill falls back to.
            for &id in &sessions {
                let snap = router.checkpoint(id).expect("checkpoint");
                stats.snapshot_bytes += snap.serialized_bytes() as u64;
                stats.snapshots += 1;
            }

            if kill && job + 1 == cut_at {
                // Live-migration bounce: every session hops to the next
                // shard, then rebalance sends each home. One round only, so
                // shard caches stay partially cold and the post-kill
                // recovery below still exercises the recompile path.
                for id in sessions.iter_mut() {
                    let owner = router.session_owner(*id).expect("session alive");
                    let m = router
                        .migrate_session(*id, (owner + 2) % shards)
                        .expect("migrates");
                    stats.migrate_us.push(m.migrate_us);
                    *id = m.new_session;
                }
                for m in router.rebalance().expect("rebalances") {
                    stats.migrate_us.push(m.migrate_us);
                    if let Some(id) = sessions.iter_mut().find(|id| **id == m.session) {
                        *id = m.new_session;
                    }
                }
                // Migration re-keys the snapshot store; refresh every
                // recovery point before pulling the plug.
                router.checkpoint_all();

                // Kill the shard owning the most sessions, then restore its
                // sessions onto the survivors from the checkpoint store.
                let mut load = vec![0usize; shards];
                for &id in &sessions {
                    load[router.session_owner(id).expect("session alive")] += 1;
                }
                let victim = (0..shards).max_by_key(|&i| load[i]).expect("non-empty");
                let lost = router.kill_shard(victim).expect("kill");
                stats.killed_shard = Some(victim);
                stats.sessions_on_killed = lost.len();
                let recovered = router.recover().expect("recover");
                stats.sessions_recovered = recovered.len();
                for (old, new) in &recovered {
                    if let Some(id) = sessions.iter_mut().find(|id| **id == *old) {
                        *id = *new;
                    }
                }
                stats.sessions_lost = lost
                    .iter()
                    .filter(|l| !recovered.iter().any(|(old, _)| old == *l))
                    .count();
            }
        }
        stats.n_sessions_end = router.n_sessions();
        (outputs, stats)
    };

    let ref_rec = Recorder::enabled();
    let (reference, _) = run_workload(false, &ref_rec);

    let rec = Recorder::enabled();
    let wall = std::time::Instant::now();
    let (served, stats) = run_workload(true, &rec);
    let wall_ms = wall.elapsed().as_millis() as u64;

    // Ground truth: each tenant's script replayed on a private device must
    // match the unkilled reference run.
    let mut reference_divergences = 0u64;
    for (t, tenant_outputs) in reference.iter().enumerate() {
        let mut device =
            MultiDevice::compile_opts(&arch, &designs[t], &opts, &Recorder::disabled())
                .expect("reference compile");
        for (job, job_outputs) in tenant_outputs.iter().enumerate() {
            let context = job % device.n_contexts();
            device.try_switch_context(context).expect("context");
            let n_in = device.kernel(context).expect("context").n_inputs();
            for (cycle, out_words) in job_outputs.iter().enumerate() {
                let words: Vec<u64> = (0..n_in).map(|i| stim_word(t, job, cycle, i)).collect();
                let expected = device.try_step_batch(&words).expect("reference step");
                if &expected != out_words {
                    reference_divergences += 1;
                }
            }
        }
    }
    assert_eq!(
        reference_divergences, 0,
        "unkilled reference diverged from the private replay"
    );

    // The failure-injected run vs the unkilled reference, word for word.
    let mut divergences = 0u64;
    let mut words_compared = 0u64;
    for t in 0..tenants {
        assert_eq!(served[t].len(), reference[t].len(), "job count per tenant");
        for (job_served, job_ref) in served[t].iter().zip(&reference[t]) {
            for (cycle_served, cycle_ref) in job_served.iter().zip(job_ref) {
                words_compared += cycle_ref.len() as u64;
                if cycle_served != cycle_ref {
                    divergences += 1;
                }
            }
        }
    }

    let killed_shard = stats.killed_shard.expect("killed run killed a shard");
    let conserved = stats.sessions_lost == 0
        && stats.sessions_recovered == stats.sessions_on_killed
        && stats.n_sessions_end == tenants;
    assert_eq!(
        divergences, 0,
        "killed run diverged from unkilled reference"
    );
    assert!(conserved, "sessions were lost across the kill");

    let mut mus = stats.migrate_us.clone();
    mus.sort_unstable();
    let pick = |q: f64| -> u64 {
        if mus.is_empty() {
            0
        } else {
            mus[((mus.len() - 1) as f64 * q).round() as usize]
        }
    };
    let migrate_p50_us = pick(0.50);
    let migrate_p99_us = pick(0.99);

    let restores = rec.counter("shard.restores");
    let restore_recompiles = rec.counter("shard.restore.recompiles");
    let recompile_on_restore_rate = if restores == 0 {
        0.0
    } else {
        restore_recompiles as f64 / restores as f64
    };
    let snapshot_bytes_mean = if stats.snapshots == 0 {
        0.0
    } else {
        stats.snapshot_bytes as f64 / stats.snapshots as f64
    };

    println!(
        "workload: {tenants} tenants x {jobs_per_tenant} jobs x {words_per_job} words \
         across {shards} shards, kill after round {cut_at}"
    );
    println!(
        "placement: {:?} sessions per shard at compile time",
        stats.initial_placement
    );
    println!(
        "migrations: {} (p50 {migrate_p50_us} us, p99 {migrate_p99_us} us, \
         {} destination recompiles)",
        stats.migrate_us.len(),
        rec.counter("shard.migrate.recompiles"),
    );
    println!(
        "kill: shard {killed_shard} with {} sessions; recovered {} \
         ({restores} restores, {restore_recompiles} recompiles), lost {}",
        stats.sessions_on_killed, stats.sessions_recovered, stats.sessions_lost,
    );
    println!(
        "identity: {divergences} divergences over {words_compared} words vs unkilled reference"
    );

    let bench = ShardBench {
        experiment: "shard".into(),
        shards,
        tenants,
        jobs_per_tenant,
        words_per_job,
        initial_sessions_per_shard: stats.initial_placement.clone(),
        migrations: rec.counter("shard.migrations"),
        migrate_p50_us,
        migrate_p99_us,
        migrate_recompiles: rec.counter("shard.migrate.recompiles"),
        killed_shard,
        sessions_on_killed: stats.sessions_on_killed,
        sessions_recovered: stats.sessions_recovered,
        sessions_lost: stats.sessions_lost,
        restores,
        restore_recompiles,
        recompile_on_restore_rate,
        checkpoints: rec.counter("shard.checkpoints"),
        snapshot_bytes_mean,
        divergences,
        words_compared,
        conserved,
        wall_ms,
        report: rec.report("shard"),
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize shard bench");
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("\nwrote BENCH_shard.json ({} bytes)", json.len());
}

/// Machine-readable record of the scale-out serving experiment
/// (`BENCH_shard.json`).
#[derive(serde::Serialize)]
struct ShardBench {
    experiment: String,
    shards: usize,
    tenants: usize,
    jobs_per_tenant: usize,
    words_per_job: usize,
    /// Rendezvous placement of the tenants' sessions right after compile.
    initial_sessions_per_shard: Vec<usize>,
    /// Live migrations performed (bounce rounds + rebalance).
    migrations: u64,
    migrate_p50_us: u64,
    /// Checkpoint → restore → close wall time, 99th percentile (gated
    /// against baseline x blowup).
    migrate_p99_us: u64,
    /// Migrations whose destination shard had to compile the design.
    migrate_recompiles: u64,
    killed_shard: usize,
    sessions_on_killed: usize,
    /// Gated == sessions_on_killed.
    sessions_recovered: usize,
    /// Gated at 0.
    sessions_lost: usize,
    /// Session restores performed by post-kill recovery.
    restores: u64,
    restore_recompiles: u64,
    /// restore_recompiles / restores (0 when no restores): how often a
    /// survivor's cache missed a recovered session's design.
    recompile_on_restore_rate: f64,
    checkpoints: u64,
    snapshot_bytes_mean: f64,
    /// Stimulus cycles served by the killed run differing from the unkilled
    /// reference (gated at 0).
    divergences: u64,
    words_compared: u64,
    /// Lost == 0, recovered == on-killed count, all sessions alive at end.
    conserved: bool,
    wall_ms: u64,
    /// Full span/metric report of the failure-injected run's recorder.
    report: RunReport,
}
