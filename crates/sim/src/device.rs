//! Compile results shared by both front ends, and the aligned front end.
//!
//! An aligned workload's contexts share one LUT cover, so LUT position `i`
//! has the same inputs in every context: one placement and one route serve
//! every context, logic block `b` holds positions `b * outputs ..`, and each
//! block's planes merge wherever contexts share its tables. Every context
//! uses register file 0, so registers survive a context switch.

use mcfpga_arch::{ArchSpec, LutMode};
use mcfpga_config::ColumnSetStats;
use mcfpga_map::{map_workload, share_workload, MapError};
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_place::{lb_of_lut, place, AnnealOptions, PlaceError, PlacementProblem};
use mcfpga_route::{nets_from_placement, route_context, RouteError, RouteOptions, RoutingGraph};

use crate::multi::{build_logic_blocks, MultiDevice};

/// Compile-flow failure.
#[derive(Debug)]
pub enum CompileError {
    Map(MapError),
    Place(PlaceError),
    Route(RouteError),
    /// The workload needs more planes somewhere than the LUT pool offers.
    PlaneOverflow {
        lb: usize,
        needed: usize,
        available: usize,
    },
    /// Workloads must contain at least one context.
    EmptyWorkload,
    /// A cancellation hook (see [`crate::MultiDevice::compile_delta`])
    /// reported the budget exhausted between per-context compile phases;
    /// the partial result was discarded.
    DeadlineExceeded,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Map(e) => write!(f, "mapping failed: {e}"),
            CompileError::Place(e) => write!(f, "placement failed: {e}"),
            CompileError::Route(e) => write!(f, "routing failed: {e}"),
            CompileError::PlaneOverflow {
                lb,
                needed,
                available,
            } => write!(
                f,
                "logic block {lb} needs {needed} planes but the pool offers {available}"
            ),
            CompileError::EmptyWorkload => write!(f, "workload has no contexts"),
            CompileError::DeadlineExceeded => {
                write!(f, "compile cancelled: deadline exceeded between contexts")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<MapError> for CompileError {
    fn from(e: MapError) -> Self {
        CompileError::Map(e)
    }
}

impl From<PlaceError> for CompileError {
    fn from(e: PlaceError) -> Self {
        CompileError::Place(e)
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}

/// Summary statistics of a compiled device, consumed by the experiments.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// The LUT input count the workload was mapped at (Fig. 12 mode).
    pub granularity: usize,
    pub n_luts: usize,
    pub n_lbs: usize,
    pub mean_planes: f64,
    pub plane_histogram: Vec<usize>,
    pub controller_ses: usize,
    pub switch_stats: ColumnSetStats,
    pub routing_iterations: usize,
    pub critical_delay: f64,
}

impl MultiDevice {
    /// Compile an aligned workload (one netlist per context, shared
    /// structure) onto an architecture, mapping at the smallest LUT
    /// granularity so the maximum plane count is available everywhere.
    pub fn compile_aligned(
        arch: &ArchSpec,
        workload: &[Netlist],
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_aligned_at_granularity(arch, workload, arch.lut.min_inputs)
    }

    /// Adaptive granularity (the Fig. 12 trade, made automatically): try
    /// the *largest* LUT size first — fewer, bigger LUTs but fewer planes —
    /// and fall back towards `min_inputs` until every logic block's plane
    /// demand fits the pool. Workloads whose contexts share heavily compile
    /// at large `k`; divergent workloads need the full plane count and land
    /// at `min_inputs`.
    pub fn compile_aligned_adaptive(
        arch: &ArchSpec,
        workload: &[Netlist],
    ) -> Result<MultiDevice, CompileError> {
        let mut last_err = None;
        for k in (arch.lut.min_inputs..=arch.lut.max_inputs).rev() {
            match Self::compile_aligned_at_granularity(arch, workload, k) {
                Ok(dev) => return Ok(dev),
                Err(e @ CompileError::PlaneOverflow { .. }) => last_err = Some(e),
                Err(other) => return Err(other),
            }
        }
        Err(last_err.expect("min_inputs attempt ran"))
    }

    /// Compile an aligned workload mapping at a specific LUT input count `k`
    /// (`min_inputs ..= max_inputs`); the plane budget is what the pool
    /// leaves: `2^(max_inputs - k)`.
    pub fn compile_aligned_at_granularity(
        arch: &ArchSpec,
        workload: &[Netlist],
        k: usize,
    ) -> Result<MultiDevice, CompileError> {
        assert!(
            (arch.lut.min_inputs..=arch.lut.max_inputs).contains(&k),
            "granularity {k} outside the pool's mode range"
        );
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        arch.validate().expect("valid architecture");
        let n_contexts = arch.n_contexts;
        assert!(
            workload.len() <= n_contexts,
            "workload has more contexts than the device"
        );
        // Pad the workload by repeating the last context so every device
        // context is programmed.
        let mut contexts: Vec<Netlist> = workload.to_vec();
        while contexts.len() < n_contexts {
            contexts.push(contexts.last().expect("non-empty").clone());
        }
        let mapped = map_workload(&contexts, k)?;
        // Asserts the shared cover: position `i` has the same inputs in
        // every context.
        share_workload(&mapped);

        // Logic blocks: positions pack `outputs` per block, and a block's
        // planes group the contexts by the tuple of its slots' tables.
        let outs = arch.lut.outputs;
        let n_luts = mapped[0].luts.len();
        let site_of: Vec<(usize, usize)> = (0..n_luts)
            .map(|i| (lb_of_lut(i, outs), i % outs))
            .collect();
        let tables: Vec<Vec<Vec<u64>>> = (0..n_luts.div_ceil(outs).max(1))
            .map(|b| {
                let members = b * outs..((b + 1) * outs).min(n_luts);
                mapped
                    .iter()
                    .map(|m| m.luts[members.clone()].iter().map(|l| l.table).collect())
                    .collect()
            })
            .collect();
        let mode = LutMode {
            inputs: k,
            planes: 1usize << (arch.lut.max_inputs - k),
        };
        let lbs = build_logic_blocks(arch, mode, &tables)?;

        // Place once (shared structure) and route once; every context uses
        // the same routes because the netlist structure is shared.
        let problem = PlacementProblem::from_mapped(&mapped[0], arch)?;
        let placement = place(&problem, &AnnealOptions::default());
        let graph = RoutingGraph::build(arch);
        let nets = nets_from_placement(&problem, &placement);
        let routed = route_context(&graph, &nets, &RouteOptions::default())?.require_converged()?;
        Ok(MultiDevice::from_image(
            arch,
            graph,
            mapped,
            vec![problem; n_contexts],
            vec![placement; n_contexts],
            vec![routed; n_contexts],
            lbs,
            vec![site_of; n_contexts],
            vec![0; n_contexts],
            &Recorder::disabled(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_netlist::{library, workload, RandomNetlistParams};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn compile_and_run_single_circuit() {
        let add = library::adder(4);
        let mut dev = MultiDevice::compile_aligned(&arch(), std::slice::from_ref(&add)).unwrap();
        dev.check_routing().unwrap();
        // 3 + 5 = 8 with carry bit.
        let mut inputs = vec![true, true, false, false]; // a = 3
        inputs.extend([true, false, true, false]); // b = 5
        inputs.push(false); // cin
        let out = dev.step(&inputs);
        let sum: u64 = out[..4]
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as u64) << i)
            .sum();
        let carry = out[4];
        assert_eq!(sum + ((carry as u64) << 4), 8);
    }

    #[test]
    fn context_switching_changes_behaviour() {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 40,
                n_outputs: 4,
                dff_fraction: 0.0,
            },
            4,
            0.5,
            77,
        );
        let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
        let inputs = vec![true, false, true, true, false, true];
        let mut outs = Vec::new();
        for c in 0..4 {
            dev.switch_context(c);
            outs.push(dev.step(&inputs));
        }
        // With a 50% change rate, at least one pair of contexts must differ.
        assert!(
            outs.windows(2).any(|w| w[0] != w[1]),
            "contexts produced identical outputs: {outs:?}"
        );
    }

    #[test]
    fn registers_survive_context_switches() {
        let cnt = library::counter(4);
        let mut dev = MultiDevice::compile_aligned(&arch(), &[cnt.clone(), cnt]).unwrap();
        // Count three times in context 0.
        for _ in 0..3 {
            dev.step(&[true]);
        }
        // Switch to context 1 (same counter) and read: state continues.
        dev.switch_context(1);
        let out = dev.step(&[false]); // hold
        let v: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
        assert_eq!(v, 3, "register state crossed the context switch");
    }

    #[test]
    fn report_is_coherent() {
        let w = workload(RandomNetlistParams::default(), 4, 0.05, 5);
        let dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
        let r = dev.report();
        assert!(r.n_luts > 0);
        assert_eq!(r.plane_histogram.iter().sum::<usize>(), r.n_luts);
        assert!(r.mean_planes >= 1.0 && r.mean_planes <= 4.0);
        assert!(r.switch_stats.n_columns > 0);
        assert!(r.critical_delay > 0.0);
        // 5% change keeps most planes shared.
        assert!(r.mean_planes < 2.0, "mean planes {}", r.mean_planes);
    }

    #[test]
    fn adaptive_granularity_grows_with_sharing() {
        let arch = ArchSpec::paper_default();
        // Identical contexts: one plane suffices everywhere, so the
        // adaptive compile lands at the largest LUT size (6).
        let circuit = library::alu(4);
        let shared_dev =
            MultiDevice::compile_aligned_adaptive(&arch, &vec![circuit.clone(); 4]).unwrap();
        assert_eq!(shared_dev.report().granularity, 6);
        // And uses fewer LUTs than the fixed k=4 compile.
        let fixed = MultiDevice::compile_aligned(&arch, &vec![circuit.clone(); 4]).unwrap();
        assert!(shared_dev.report().n_luts < fixed.report().n_luts);

        // Divergent contexts need planes and fall back towards k=4.
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 50,
                n_outputs: 5,
                dff_fraction: 0.0,
            },
            4,
            0.5,
            3,
        );
        let divergent = MultiDevice::compile_aligned_adaptive(&arch, &w).unwrap();
        assert!(divergent.report().granularity < 6);
    }

    #[test]
    fn adaptive_devices_stay_equivalent() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::popcount(6); 4];
        let mut dev = MultiDevice::compile_aligned_adaptive(&arch, &contexts).unwrap();
        crate::equivalence::check_device_equivalence(&mut dev, &contexts, 40, 9).unwrap();
    }

    #[test]
    fn empty_workload_is_rejected() {
        assert!(matches!(
            MultiDevice::compile_aligned(&arch(), &[]),
            Err(CompileError::EmptyWorkload)
        ));
    }

    #[test]
    fn reset_restores_initial_state() {
        let cnt = library::counter(3);
        let mut dev = MultiDevice::compile_aligned(&arch(), &[cnt]).unwrap();
        dev.step(&[true]);
        dev.step(&[true]);
        dev.reset();
        let out = dev.step(&[false]);
        assert!(out.iter().all(|&b| !b), "counter back at zero");
    }
}

#[cfg(test)]
mod activity_tests {
    use super::*;
    use mcfpga_netlist::library;

    #[test]
    fn toggle_rate_tracks_activity() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::parity(8); 4];
        let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
        dev.enable_activity_census();
        // Constant inputs: after the first cycle nothing toggles.
        for _ in 0..10 {
            dev.step(&[false; 8]);
        }
        let quiet = dev.toggle_rate(0);
        dev.reset();
        // Pseudo-random inputs: the XOR tree churns.
        let mut lfsr = 0xACE1u16;
        for _ in 0..40 {
            let inputs: Vec<bool> = (0..8).map(|i| (lfsr >> i) & 1 == 1).collect();
            dev.step(&inputs);
            let bit = (lfsr ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1;
            lfsr = (lfsr >> 1) | (bit << 15);
        }
        let busy = dev.toggle_rate(0);
        assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
        assert!(quiet < 0.1);
        assert!(busy > 0.2);
    }

    #[test]
    fn toggle_rate_is_zero_not_nan_before_any_cycle() {
        // Regression: cycles == 0 must short-circuit, never divide.
        let arch = ArchSpec::paper_default();
        let mut dev = MultiDevice::compile_aligned(&arch, &vec![library::parity(4); 2]).unwrap();
        dev.enable_activity_census();
        let rate = dev.toggle_rate(0);
        assert!(!rate.is_nan(), "zero-cycle device produced NaN");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn toggle_rate_is_zero_not_nan_on_a_lut_less_device() {
        // A pure-passthrough netlist maps to zero LUTs; with cycles > 0 the
        // rate divides by the LUT count, which must be guarded too. Covers
        // both the scalar and batched accounting paths (shared counters).
        let arch = ArchSpec::paper_default();
        let mut wire = mcfpga_netlist::Netlist::new("wire");
        let a = wire.input("a");
        wire.output("y", a);
        let mut dev = MultiDevice::compile_aligned(&arch, &vec![wire; 2]).unwrap();
        dev.enable_activity_census();
        let out = dev.step(&[true]);
        assert_eq!(out, vec![true]);
        dev.step_batch(&[u64::MAX]);
        let rate = dev.toggle_rate(0);
        assert!(!rate.is_nan(), "LUT-less device produced NaN");
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn context_switch_toggles_match_column_changes() {
        let arch = ArchSpec::paper_default();
        let contexts = vec![library::adder(4); 4];
        let dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
        // Identical contexts: switching costs zero configuration toggles.
        assert_eq!(dev.context_switch_toggles(0, 3), 0);
        assert_eq!(dev.context_switch_toggles(1, 2), 0);
    }
}
