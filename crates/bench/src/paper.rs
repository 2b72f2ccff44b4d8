//! The paper's tables and figures (Tables 1-2, Figs. 3-14, the Section 5
//! area headlines) and the extension sweeps around them: printed to stdout,
//! no BENCH report.

use crate::{header, mixed_contexts, suite};
use mcfpga::area::{
    area_comparison, context_switch_delay, routing_delay, static_power, AreaParams,
    ColumnDistribution, DelayParams, FabricWeights, PowerParams, Technology,
};
use mcfpga::config::{classify, ColumnSetStats, ConfigColumn};
use mcfpga::map::{map_netlist, pack_global, pack_local, PackOptions};
use mcfpga::netlist::dfg::{generated_family, paper_example};
use mcfpga::netlist::{library, workload, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::rcm::synthesize;

/// Table 2: the context-ID encoding.
pub fn table2() {
    header("table2: context-ID encoding (paper Table 2)");
    for n in [4usize, 8] {
        let ctx = ContextId::new(n).unwrap();
        println!("{n} contexts, {} ID bits:", ctx.n_bits());
        print!("{}", ctx.table_string());
    }
}

/// Table 1: redundancy and regularity in real configuration data.
pub fn table1() {
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
pub fn fig3_5() {
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
pub fn fig9() {
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
pub fn fig12() {
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
pub fn fig13_14() {
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
pub fn area45() {
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
pub fn area37() {
    header("area37: Section 5 FePG area comparison");
    let eval = evaluate_paper_point();
    print_comparison("FePG", &eval.fepg, 0.37);
    println!("\nFePG switch elements merge logic and non-volatile storage at the");
    println!("device level; the paper scales an SE by 0.5 (Fig. 15), which we");
    println!("apply to every RCM SE including size controllers.");
}

/// Extension sweep: area ratio vs change rate.
pub fn sweep_change() {
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
pub fn sweep_contexts() {
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
pub fn delay() {
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
pub fn power() {
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

/// Adaptive granularity in the compile flow: the Fig. 12 trade made
/// automatically per workload.
pub fn fig12_adaptive() {
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
pub fn reconfig() {
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
pub fn faults() {
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

/// Ablations: switch off each design ingredient and show what it bought.
pub fn ablations() {
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
pub fn temporal() {
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
pub fn channel_width() {
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
