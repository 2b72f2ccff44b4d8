//! Fault injection: single-event upsets in configuration storage and
//! stuck routing switches, with detection via the equivalence checker.
//!
//! Two fault classes matter to the architecture:
//!
//! * **LUT plane bits** — an upset changes one function point of one plane;
//!   it manifests only in the contexts mapped to that plane and only for the
//!   affected input assignment.
//! * **Routing switches** — a stuck-off switch breaks connectivity in the
//!   contexts that needed it; [`crate::MultiDevice::check_routing`]-style
//!   re-derivation finds these *structurally*, without stimulus.
//!
//! The campaign utilities below quantify detection: how many random upsets
//! the randomized stimulus catches. Bits on *unused* planes or don't-care
//! assignments are genuinely silent — the reported coverage separates
//! activated from dormant faults.
//!
//! The campaign runs on the compiled bit-parallel kernel: one shared
//! stimulus schedule (context switches at word boundaries, 64 independent
//! vector streams per word) is evaluated once against the golden netlists,
//! then each fault gets a *clone* of the healthy per-context kernels with
//! the affected folded table bit flipped ([`crate::kernel`]), and its whole
//! vector set is replayed in words and compared against the golden output
//! words with early exit. Faults fan out across the same scoped worker pool
//! the compile pipeline uses, and the device itself is never mutated.

use mcfpga_netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::equivalence::{reference_orders, reference_states};
use crate::kernel::{extract_lane, KernelScratch, Operand, LANES};
use crate::multi::{effective_workers, fan_out, MultiDevice};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutFault {
    pub lb: usize,
    pub output: usize,
    pub plane: usize,
    pub assignment: usize,
}

/// Result of a fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    pub injected: usize,
    /// Faults the randomized stimulus caught.
    pub detected: usize,
    /// Faults that stayed silent over the stimulus budget.
    pub silent: usize,
}

impl CampaignReport {
    pub fn detection_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.detected as f64 / self.injected as f64
        }
    }
}

impl MultiDevice {
    /// Inject a LUT-bit upset. Returns the fault record for reporting.
    pub fn inject_lut_fault(&mut self, fault: LutFault) -> LutFault {
        self.lb_mut(fault.lb)
            .flip_lut_bit(fault.output, fault.plane, fault.assignment);
        fault
    }

    /// Remove a previously injected upset (flipping is an involution).
    pub fn clear_lut_fault(&mut self, fault: LutFault) {
        self.inject_lut_fault(fault);
    }
}

/// One word-step of the shared campaign stimulus.
struct ScheduleStep {
    context: usize,
    inputs: Vec<u64>,
}

/// Run a single-fault campaign: inject `n_faults` random LUT upsets one at a
/// time and test each against the golden netlists with `cycles` word-steps
/// of randomized stimulus (64 vector streams per word, context switches at
/// word boundaries) — `cycles * 64` vectors per fault.
pub fn lut_fault_campaign(
    device: &mut MultiDevice,
    references: &[Netlist],
    n_faults: usize,
    cycles: usize,
    seed: u64,
) -> CampaignReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_lbs = device.n_lbs();
    let outs = device.arch().lut.outputs;
    let mode = device.lb_mode();
    let faults: Vec<LutFault> = (0..n_faults)
        .map(|_| LutFault {
            lb: rng.gen_range(0..n_lbs),
            output: rng.gen_range(0..outs),
            plane: rng.gen_range(0..mode.planes),
            assignment: rng.gen_range(0..1usize << mode.inputs),
        })
        .collect();

    // The shared stimulus schedule: every fault sees the same words, so the
    // fault-free reference outputs are computed exactly once.
    let mut sched_rng = StdRng::seed_from_u64(seed ^ 0x05EE_DFA0_7CA3_D1D0_u64);
    let mut context = 0usize;
    let schedule: Vec<ScheduleStep> = (0..cycles)
        .map(|_| {
            if sched_rng.gen_bool(0.3) {
                context = sched_rng.gen_range(0..references.len());
            }
            let n_inputs = references[context].inputs().len();
            ScheduleStep {
                context,
                inputs: (0..n_inputs).map(|_| sched_rng.next_u64()).collect(),
            }
        })
        .collect();

    // Golden output words: each lane is an independent reference replay,
    // with one reference state per device register file.
    let mut ref_states: Vec<Vec<_>> = reference_states(device, references)
        .into_iter()
        .map(|s| vec![s; LANES])
        .collect();
    let orders = reference_orders(references);
    let mut lane_inputs = Vec::new();
    let expected: Vec<Vec<u64>> = schedule
        .iter()
        .map(|step| {
            let mut words: Vec<u64> = Vec::new();
            lane_inputs.resize(step.inputs.len(), false);
            let states = &mut ref_states[device.reg_file[step.context]];
            for (lane, state) in states.iter_mut().enumerate() {
                extract_lane(&step.inputs, lane, &mut lane_inputs);
                let out = references[step.context]
                    .step_in_order(orders[step.context].as_deref(), &lane_inputs, state)
                    .expect("reference evaluation");
                if lane == 0 {
                    words = vec![0u64; out.len()];
                }
                for (w, &b) in words.iter_mut().zip(&out) {
                    *w |= (b as u64) << lane;
                }
            }
            words
        })
        .collect();

    // Healthy per-context kernels and the power-on register files; each
    // fault flips its folded table bits on a clone.
    device.reset();
    let kernels = device.compiled_kernels();
    // Fault sites address LUT positions; the optimizer renumbers, merges,
    // and folds instructions, so the campaign is only meaningful on the
    // direct lowering, where every position's slot is its own
    // instruction's result. `compiled_kernels` guarantees that by
    // construction — this assert pins the contract.
    assert!(
        kernels.iter().all(|k| (0..k.lut_slots.len() as u32)
            .all(|l| k.lut_slots[l as usize] == k.slots().slot(Operand::Lut(l)))),
        "fault campaign requires unoptimized kernels"
    );
    let init_regs = device.states.clone();
    let reg_file = &device.reg_file;
    let fault_sites: Vec<Vec<(usize, usize)>> = faults
        .iter()
        .map(|f| device.fault_kernel_sites(f))
        .collect();

    let caught = fan_out(n_faults, effective_workers(n_faults), |_worker, f| {
        let mut kernels = kernels.clone();
        for &(c, position) in &fault_sites[f] {
            kernels[c].flip_table_bit(position, faults[f].assignment);
        }
        let mut regs = init_regs.clone();
        let mut scratch = KernelScratch::new();
        let mut out: Vec<u64> = Vec::new();
        for (step, want) in schedule.iter().zip(&expected) {
            let file = reg_file[step.context];
            kernels[step.context].step(&step.inputs, &mut regs[file], &mut scratch, &mut out);
            if out != *want {
                return true;
            }
        }
        false
    });
    let detected = caught.iter().filter(|&&c| c).count();
    CampaignReport {
        injected: n_faults,
        detected,
        silent: n_faults - detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::check_device_equivalence;
    use mcfpga_arch::ArchSpec;
    use mcfpga_netlist::{library, workload, RandomNetlistParams};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn injected_fault_on_used_plane_is_detected() {
        let circuits = vec![library::parity(8); 4];
        let mut dev = MultiDevice::compile_aligned(&arch(), &circuits).unwrap();
        // The parity tree's LUTs are all on plane 0 (fully shared) and
        // every assignment of a XOR table matters: any flip must be caught.
        let fault = LutFault {
            lb: 0,
            output: 0,
            plane: 0,
            assignment: 3,
        };
        dev.inject_lut_fault(fault);
        assert!(
            check_device_equivalence(&mut dev, &circuits, 200, 5).is_err(),
            "XOR-table upset must be visible"
        );
        // Clearing restores equivalence.
        dev.clear_lut_fault(fault);
        dev.reset();
        check_device_equivalence(&mut dev, &circuits, 100, 5).unwrap();
    }

    #[test]
    fn campaign_detects_most_faults_on_dense_logic() {
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
        let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
        let report = lut_fault_campaign(&mut dev, &w, 30, 120, 13);
        assert_eq!(report.injected, 30);
        assert_eq!(report.detected + report.silent, 30);
        // Random 6-input netlists don't exercise every LUT assignment and
        // unused planes are dormant, but a healthy fraction must be caught.
        assert!(
            report.detection_rate() > 0.2,
            "detection rate {:.2}",
            report.detection_rate()
        );
        // After the campaign the device is fault-free again (the campaign
        // runs on kernel clones and never mutates the device).
        check_device_equivalence(&mut dev, &w, 60, 1).unwrap();
    }

    #[test]
    fn campaign_runs_on_independent_circuits() {
        // One register file per context and a different input arity in
        // each: the golden and kernel replays must follow the active
        // context's file. A replay that drifted from the golden outputs
        // would flag every fault, so some must stay silent.
        let circuits = vec![
            library::counter(4),
            library::lfsr(8, 0x8E),
            library::adder(4),
        ];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let report = lut_fault_campaign(&mut dev, &circuits, 30, 120, 13);
        assert_eq!(report.detected + report.silent, 30);
        assert!(report.detected > 0 && report.silent > 0, "{report:?}");
        check_device_equivalence(&mut dev, &circuits, 60, 1).unwrap();
    }

    #[test]
    fn campaign_agrees_with_direct_scalar_injection() {
        // Every fault the batched campaign flags must be a real divergence:
        // inject it scalar-wise and confirm with the scalar checker; every
        // silent fault must survive the same scalar stimulus budget.
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 30,
                n_outputs: 4,
                dff_fraction: 0.1,
            },
            4,
            0.1,
            21,
        );
        let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
        let report = lut_fault_campaign(&mut dev, &w, 12, 60, 7);
        // Re-derive the same fault list the campaign sampled.
        let mut rng = StdRng::seed_from_u64(7);
        let n_lbs = dev.n_lbs();
        let outs = dev.arch().lut.outputs;
        let mode = dev.lb_mode();
        let mut scalar_detected = 0usize;
        for _ in 0..12 {
            let fault = LutFault {
                lb: rng.gen_range(0..n_lbs),
                output: rng.gen_range(0..outs),
                plane: rng.gen_range(0..mode.planes),
                assignment: rng.gen_range(0..1usize << mode.inputs),
            };
            dev.inject_lut_fault(fault);
            if check_device_equivalence(&mut dev, &w, 120, 99).is_err() {
                scalar_detected += 1;
            }
            dev.clear_lut_fault(fault);
            dev.reset();
        }
        // The batched campaign pushes 64x the vectors per fault, so it can
        // only catch at least as much as a scalar pass of similar length.
        assert!(
            report.detected >= scalar_detected,
            "batched {} < scalar {}",
            report.detected,
            scalar_detected
        );
    }

    #[test]
    fn faults_on_unused_planes_are_silent() {
        // Fully shared workload: only plane 0 is ever selected; upsets on
        // plane 3 can never be observed.
        let circuits = vec![library::adder(4); 4];
        let mut dev = MultiDevice::compile_aligned(&arch(), &circuits).unwrap();
        let fault = LutFault {
            lb: 0,
            output: 0,
            plane: 3,
            assignment: 0,
        };
        dev.inject_lut_fault(fault);
        check_device_equivalence(&mut dev, &circuits, 150, 3)
            .expect("dormant-plane fault must stay silent");
    }
}
