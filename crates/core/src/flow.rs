//! High-level flow helpers: measured (rather than analytic) area
//! comparisons, the one-call Section 5 evaluation, and the instrumented
//! end-to-end flow behind `BENCH_flow.json`.

use mcfpga_arch::ArchSpec;
use mcfpga_area::{
    area_comparison, conventional_lb_area, conventional_switch_area, proposed_lb_area,
    rcm_column_area, AreaComparison, AreaParams, FabricWeights, LbWorkload, Technology,
};
use mcfpga_netlist::Netlist;
use mcfpga_obs::{Recorder, RunReport};
use mcfpga_rcm::{synthesize, synthesize_with};
use mcfpga_sim::{CompileError, CompileOptions, MultiDevice};

/// Area comparison driven by a *compiled device's measured* statistics —
/// actual switch columns from routing and actual plane demand from
/// cross-context sharing — instead of the analytic change-rate model.
pub fn measured_area_comparison(
    device: &MultiDevice,
    tech: Technology,
    params: &AreaParams,
    weights: &FabricWeights,
) -> AreaComparison {
    let arch = device.arch();
    let ctx = arch.context_id();
    let n = ctx.n_contexts();

    // Switch side: mean measured column area over the routed design.
    let columns = device.switch_usage().columns();
    let mean_col_area = if columns.is_empty() {
        0.0
    } else {
        columns
            .iter()
            .map(|c| rcm_column_area(&synthesize(*c, ctx).cost(), tech, params))
            .sum::<f64>()
            / columns.len() as f64
    };
    let conv_switch = conventional_switch_area(n, params) * weights.switches_per_cell;
    let prop_switch = mean_col_area * weights.switches_per_cell;

    // Logic side: measured plane demand and controller cost.
    let report = device.report();
    let n_lbs = report.n_lbs.max(1) as f64;
    let lb_workload = LbWorkload {
        mean_planes: report.mean_planes,
        mean_controller_ses: report.controller_ses as f64 / n_lbs,
    };
    let conv_lb = conventional_lb_area(&arch.lut, n, params);
    let prop_lb = proposed_lb_area(&arch.lut, &lb_workload, tech, params);

    let conventional_cell = conv_switch + conv_lb;
    let proposed_cell = prop_switch + prop_lb;
    AreaComparison {
        n_contexts: n,
        change_rate: report.switch_stats.change_rate,
        conventional_cell,
        proposed_cell,
        ratio: proposed_cell / conventional_cell,
        conventional_switches: conv_switch,
        proposed_switches: prop_switch,
        conventional_lb: conv_lb,
        proposed_lb: prop_lb,
    }
}

/// The paper's Section 5 evaluation in one call: 4 contexts, 6-input
/// 2-output MCMG-LUTs, 5% configuration change.
#[derive(Debug, Clone)]
pub struct PaperEvaluation {
    pub cmos: AreaComparison,
    pub fepg: AreaComparison,
}

/// Evaluate the paper's headline point (expected: CMOS ≈ 45%, FePG ≈ 37%).
pub fn evaluate_paper_point() -> PaperEvaluation {
    let arch = ArchSpec::paper_default();
    let params = AreaParams::paper_default();
    let weights = FabricWeights::default();
    PaperEvaluation {
        cmos: area_comparison(&arch, 0.05, Technology::Cmos, &params, &weights),
        fepg: area_comparison(&arch, 0.05, Technology::Fepg, &params, &weights),
    }
}

/// Outcome of one instrumented end-to-end run: the compiled device, the
/// headline area comparison at both technologies, and the observability
/// report with per-phase spans and metrics.
pub struct FlowOutcome {
    pub device: MultiDevice,
    pub cmos: AreaComparison,
    pub fepg: AreaComparison,
    pub report: RunReport,
}

/// The instrumented end-to-end pipeline. Configure a run through
/// [`Flow::builder`]; [`run_flow`] is the zero-configuration convenience
/// form.
pub struct Flow;

impl Flow {
    /// Start configuring a flow run. Every knob has a default: disabled
    /// recorder, default [`CompileOptions`], 25 simulated cycles per
    /// context.
    pub fn builder() -> FlowBuilder {
        FlowBuilder::default()
    }
}

/// Builder for one end-to-end flow run — map, place, route, switch-column
/// extraction, RCM decoder synthesis, a short multi-context simulation, and
/// the Section 5 area evaluation.
///
/// ```no_run
/// use mcfpga::flow::Flow;
/// use mcfpga::sim::CompileOptions;
/// use mcfpga_obs::Recorder;
///
/// let arch = mcfpga_arch::ArchSpec::paper_default();
/// let circuits: Vec<mcfpga_netlist::Netlist> = todo!("one netlist per context");
/// let rec = Recorder::enabled();
/// let outcome = Flow::builder()
///     .recorder(&rec)
///     .compile_options(CompileOptions::default().with_parallel(false))
///     .sim_cycles(10)
///     .run(&arch, &circuits)
///     .expect("flow compiles");
/// println!("CMOS ratio {:.3}", outcome.cmos.ratio);
/// ```
#[derive(Debug, Clone)]
pub struct FlowBuilder {
    recorder: Recorder,
    options: CompileOptions,
    sim_cycles: usize,
}

impl Default for FlowBuilder {
    fn default() -> Self {
        FlowBuilder {
            recorder: Recorder::disabled(),
            options: CompileOptions::default(),
            sim_cycles: 25,
        }
    }
}

impl FlowBuilder {
    /// Record a span per phase and the standard metrics into `rec`. With
    /// the default disabled recorder this is just the uninstrumented flow.
    pub fn recorder(mut self, rec: &Recorder) -> Self {
        self.recorder = rec.clone();
        self
    }

    /// Compile-pipeline knobs (serial vs parallel per-context compile,
    /// router rip-up schedule).
    pub fn compile_options(mut self, opts: CompileOptions) -> Self {
        self.options = opts;
        self
    }

    /// Clock cycles run per programmed context (with a context switch
    /// between contexts), driving the `sim.context_switches` / `sim.steps`
    /// counters; the inputs are all-low, which is enough for timing.
    pub fn sim_cycles(mut self, cycles: usize) -> Self {
        self.sim_cycles = cycles;
        self
    }

    /// Run the configured pipeline over `circuits` (one netlist per
    /// context) on `arch`.
    pub fn run(&self, arch: &ArchSpec, circuits: &[Netlist]) -> Result<FlowOutcome, CompileError> {
        let rec = &self.recorder;
        let flow_span = rec.span("flow");
        let ctx = arch.context_id();

        // Map / place / route / columns / logic_blocks spans open inside.
        let mut device = MultiDevice::compile_opts(arch, circuits, &self.options, rec)?;

        {
            let _span = rec.span("rcm");
            for &col in device.switch_usage().columns().iter() {
                synthesize_with(col, ctx, rec);
            }
        }

        {
            let _span = rec.span("sim");
            for (c, circuit) in circuits.iter().enumerate() {
                device.switch_context(c);
                let inputs = vec![false; circuit.inputs().len()];
                for _ in 0..self.sim_cycles {
                    device.step(&inputs);
                }
            }
        }

        let params = AreaParams::paper_default();
        let weights = FabricWeights::default();
        let (cmos, fepg);
        {
            let _span = rec.span("area");
            let columns = device.switch_usage().columns();
            let change = mcfpga_config::ColumnSetStats::measure(&columns, ctx).change_rate;
            cmos = area_comparison(arch, change, Technology::Cmos, &params, &weights);
            fepg = area_comparison(arch, change, Technology::Fepg, &params, &weights);
            rec.set_gauge("area.change_rate", change);
            rec.set_gauge("area.cmos_ratio", cmos.ratio);
            rec.set_gauge("area.fepg_ratio", fepg.ratio);
        }

        drop(flow_span);
        let mut report = rec.report("flow");
        // Condense the per-switch trace into the report's reconfiguration
        // summary (None when the recorder is disabled or nothing switched).
        report.reconfig = mcfpga_obs::ReconfigTelemetry::from_events(&rec.trace_events());
        Ok(FlowOutcome {
            device,
            cmos,
            fepg,
            report,
        })
    }
}

/// Thin convenience wrapper over [`Flow::builder`] with every knob at its
/// default: `Flow::builder().recorder(rec).sim_cycles(sim_cycles).run(..)`.
pub fn run_flow(
    arch: &ArchSpec,
    circuits: &[Netlist],
    sim_cycles: usize,
    rec: &Recorder,
) -> Result<FlowOutcome, CompileError> {
    Flow::builder()
        .recorder(rec)
        .sim_cycles(sim_cycles)
        .run(arch, circuits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_netlist::{workload, RandomNetlistParams};

    #[test]
    fn paper_point_reproduces_the_headline_shape() {
        let eval = evaluate_paper_point();
        assert!(eval.cmos.ratio < 1.0);
        assert!(eval.fepg.ratio < eval.cmos.ratio);
        assert!(
            (eval.cmos.ratio - 0.45).abs() < 0.10,
            "CMOS {:.3} vs paper 0.45",
            eval.cmos.ratio
        );
        assert!(
            (eval.fepg.ratio - 0.37).abs() < 0.10,
            "FePG {:.3} vs paper 0.37",
            eval.fepg.ratio
        );
    }

    #[test]
    fn measured_comparison_tracks_the_analytic_model() {
        let arch = ArchSpec::paper_default();
        let w = workload(
            RandomNetlistParams {
                n_inputs: 8,
                n_gates: 60,
                n_outputs: 6,
                dff_fraction: 0.0,
            },
            4,
            0.05,
            42,
        );
        let device = MultiDevice::compile_aligned(&arch, &w).unwrap();
        let params = AreaParams::paper_default();
        let weights = FabricWeights::default();
        let measured = measured_area_comparison(&device, Technology::Cmos, &params, &weights);
        assert!(measured.ratio < 1.0);
        // Structure-preserving workloads route identically in every
        // context, so measured switch columns are all constant — the
        // measured ratio sits below the analytic 5% point.
        let analytic = area_comparison(&arch, 0.05, Technology::Cmos, &params, &weights);
        assert!(measured.ratio <= analytic.ratio + 0.05);
    }
}
