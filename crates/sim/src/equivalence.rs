//! Device-vs-reference equivalence checking.
//!
//! The strongest statement the reproduction can make about functional
//! correctness: drive the compiled fabric and the golden gate-level
//! netlists with the same stimulus — including context switches at
//! arbitrary cycles — and require bit-exact agreement on every output of
//! every cycle.
//!
//! Two drivers share that contract: the scalar [`check_device_equivalence`]
//! (one vector per cycle, the original stimulus distribution) and the
//! batched [`check_device_equivalence_batch`], which pushes
//! [`LANES`] independent stimulus streams per word
//! through the compiled kernel, with context switches applied at word
//! boundaries (all lanes switch together) and every lane replayed against
//! its own reference state.

use mcfpga_netlist::{Netlist, NetlistError, NodeId, State};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::kernel::LANES;
use crate::multi::{MultiDevice, SimError};

/// An observed divergence. `lane` is the stimulus stream that diverged —
/// always 0 on the scalar path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceError {
    pub cycle: usize,
    pub context: usize,
    pub lane: usize,
    pub inputs: Vec<bool>,
    pub device: Vec<bool>,
    pub reference: Vec<bool>,
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "divergence at cycle {} (context {}, lane {}): device {:?} vs reference {:?}",
            self.cycle, self.context, self.lane, self.device, self.reference
        )
    }
}

impl std::error::Error for EquivalenceError {}

/// Failure of an equivalence run, divergence and infrastructure separated:
/// a campaign must not confuse "the fault was caught" with "the golden
/// netlist could not be evaluated".
#[derive(Debug, Clone, PartialEq)]
pub enum EquivalenceCheckError {
    /// Device and reference disagreed (the signal the campaigns count).
    Divergence(EquivalenceError),
    /// The golden netlist itself failed to evaluate.
    Reference {
        cycle: usize,
        context: usize,
        error: NetlistError,
    },
    /// The device rejected the stimulus.
    Sim(SimError),
}

impl EquivalenceCheckError {
    /// The divergence record, if this failure is one.
    pub fn divergence(&self) -> Option<&EquivalenceError> {
        match self {
            EquivalenceCheckError::Divergence(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for EquivalenceCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceCheckError::Divergence(e) => write!(f, "{e}"),
            EquivalenceCheckError::Reference {
                cycle,
                context,
                error,
            } => write!(
                f,
                "reference evaluation failed at cycle {cycle} (context {context}): {error:?}"
            ),
            EquivalenceCheckError::Sim(e) => write!(f, "device rejected stimulus: {e}"),
        }
    }
}

impl std::error::Error for EquivalenceCheckError {}

impl From<EquivalenceError> for EquivalenceCheckError {
    fn from(e: EquivalenceError) -> Self {
        EquivalenceCheckError::Divergence(e)
    }
}

impl From<SimError> for EquivalenceCheckError {
    fn from(e: SimError) -> Self {
        EquivalenceCheckError::Sim(e)
    }
}

/// Each reference's topological order, computed once per replay so that a
/// lock-step cycle only evaluates gates (`None` for a cyclic netlist, which
/// then fails each step as [`Netlist::step`] does).
pub(crate) fn reference_orders(references: &[Netlist]) -> Vec<Option<Vec<NodeId>>> {
    references.iter().map(|r| r.topo_order().ok()).collect()
}

/// One reference register state per device register file: file `f`
/// powers on with context `f`'s initial state.
pub(crate) fn reference_states(device: &MultiDevice, references: &[Netlist]) -> Vec<State> {
    references
        .iter()
        .take(device.states.len())
        .map(|r| r.initial_state())
        .collect()
}

/// Run `cycles` random cycles with random context switches; compare the
/// device against the per-context reference netlists. The references keep
/// one register state per device register file, so contexts of an aligned
/// workload (one shared file) carry state across switches exactly as the
/// fabric does.
pub fn check_device_equivalence(
    device: &mut MultiDevice,
    references: &[Netlist],
    cycles: usize,
    seed: u64,
) -> Result<(), EquivalenceCheckError> {
    let mut rng = StdRng::seed_from_u64(seed);
    device.reset();
    device.try_switch_context(0)?;
    let mut ref_states = reference_states(device, references);
    let orders = reference_orders(references);
    let mut context = 0usize;
    for cycle in 0..cycles {
        // Occasionally switch contexts (the defining operation).
        if rng.gen_bool(0.3) {
            context = rng.gen_range(0..references.len());
            device.try_switch_context(context)?;
        }
        let n_inputs = references[context].inputs().len();
        let inputs: Vec<bool> = (0..n_inputs).map(|_| rng.gen_bool(0.5)).collect();
        let dev_out = device.try_step(&inputs)?;
        let state = &mut ref_states[device.reg_file[context]];
        let ref_out = references[context]
            .step_in_order(orders[context].as_deref(), &inputs, state)
            .map_err(|error| EquivalenceCheckError::Reference {
                cycle,
                context,
                error,
            })?;
        if dev_out != ref_out {
            return Err(EquivalenceError {
                cycle,
                context,
                lane: 0,
                inputs,
                device: dev_out,
                reference: ref_out,
            }
            .into());
        }
    }
    Ok(())
}

/// The batched counterpart: `words` word-steps of [`LANES`] independent
/// random stimulus streams each, with random context switches at word
/// boundaries. Every lane is replayed scalar-wise against its own reference
/// state, so one call covers `words * LANES` vector-cycles.
pub fn check_device_equivalence_batch(
    device: &mut MultiDevice,
    references: &[Netlist],
    words: usize,
    seed: u64,
) -> Result<(), EquivalenceCheckError> {
    let mut rng = StdRng::seed_from_u64(seed);
    device.reset();
    device.try_switch_context(0)?;
    let mut ref_states: Vec<Vec<State>> = reference_states(device, references)
        .into_iter()
        .map(|s| vec![s; LANES])
        .collect();
    let orders = reference_orders(references);
    let mut context = 0usize;
    let mut in_words: Vec<u64> = Vec::new();
    let mut out_words: Vec<u64> = Vec::new();
    let mut lane_inputs: Vec<bool> = Vec::new();
    for word in 0..words {
        if rng.gen_bool(0.3) {
            context = rng.gen_range(0..references.len());
            device.try_switch_context(context)?;
        }
        let n_inputs = references[context].inputs().len();
        in_words.clear();
        in_words.extend((0..n_inputs).map(|_| rng.next_u64()));
        lane_inputs.resize(n_inputs, false);
        device.try_step_batch_into(&in_words, &mut out_words)?;
        let file = device.reg_file[context];
        for (lane, ref_state) in ref_states[file].iter_mut().enumerate() {
            for (b, w) in lane_inputs.iter_mut().zip(&in_words) {
                *b = (w >> lane) & 1 == 1;
            }
            let ref_out = references[context]
                .step_in_order(orders[context].as_deref(), &lane_inputs, ref_state)
                .map_err(|error| EquivalenceCheckError::Reference {
                    cycle: word,
                    context,
                    error,
                })?;
            let diverged = ref_out
                .iter()
                .enumerate()
                .any(|(o, &r)| ((out_words[o] >> lane) & 1 == 1) != r);
            if diverged {
                let device_bits = (0..ref_out.len())
                    .map(|o| (out_words[o] >> lane) & 1 == 1)
                    .collect();
                return Err(EquivalenceError {
                    cycle: word,
                    context,
                    lane,
                    inputs: lane_inputs.clone(),
                    device: device_bits,
                    reference: ref_out,
                }
                .into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_arch::ArchSpec;
    use mcfpga_netlist::{library, workload, RandomNetlistParams};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn random_workloads_are_equivalent() {
        for seed in [1u64, 2, 3] {
            let w = workload(
                RandomNetlistParams {
                    n_inputs: 7,
                    n_gates: 50,
                    n_outputs: 5,
                    dff_fraction: 0.0,
                },
                4,
                0.1,
                seed,
            );
            let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
            check_device_equivalence(&mut dev, &w, 60, seed).unwrap();
            check_device_equivalence_batch(&mut dev, &w, 10, seed).unwrap();
        }
    }

    #[test]
    fn sequential_workloads_are_equivalent() {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 5,
                n_gates: 40,
                n_outputs: 4,
                dff_fraction: 0.2,
            },
            4,
            0.05,
            11,
        );
        let mut dev = MultiDevice::compile_aligned(&arch(), &w).unwrap();
        check_device_equivalence(&mut dev, &w, 80, 11).unwrap();
        check_device_equivalence_batch(&mut dev, &w, 20, 11).unwrap();
        // Independent circuits with different arities and register counts:
        // one register file per context.
        let circuits = vec![
            library::counter(4),
            library::lfsr(8, 0x8E),
            library::adder(4),
        ];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        check_device_equivalence(&mut dev, &circuits, 80, 11).unwrap();
        check_device_equivalence_batch(&mut dev, &circuits, 20, 11).unwrap();
    }

    #[test]
    fn library_circuit_pairs_are_equivalent() {
        // Same circuit replicated in every context: the pure-sharing case.
        for circuit in [library::adder(4), library::alu(4), library::popcount(6)] {
            let contexts = vec![circuit.clone(), circuit.clone(), circuit.clone(), circuit];
            let mut dev = MultiDevice::compile_aligned(&arch(), &contexts).unwrap();
            check_device_equivalence(&mut dev, &contexts, 40, 3).unwrap();
            check_device_equivalence_batch(&mut dev, &contexts, 8, 3).unwrap();
        }
    }

    #[test]
    fn batch_checker_catches_an_injected_fault_with_lane_attribution() {
        let contexts = vec![library::parity(8); 4];
        let mut dev = MultiDevice::compile_aligned(&arch(), &contexts).unwrap();
        dev.inject_lut_fault(crate::faults::LutFault {
            lb: 0,
            output: 0,
            plane: 0,
            assignment: 3,
        });
        let err = check_device_equivalence_batch(&mut dev, &contexts, 20, 5)
            .expect_err("XOR-table upset must be visible to the batched checker");
        let div = err.divergence().expect("divergence, not infrastructure");
        assert!(div.lane < LANES);
        assert_ne!(div.device, div.reference);
    }

    #[test]
    fn divergence_reporting_shape() {
        // Not a real divergence test (the flow is correct); check Display.
        let e = EquivalenceError {
            cycle: 5,
            context: 2,
            lane: 17,
            inputs: vec![true],
            device: vec![false],
            reference: vec![true],
        };
        let s = e.to_string();
        assert!(s.contains("cycle 5"));
        assert!(s.contains("context 2"));
        assert!(s.contains("lane 17"));
        let wrapped: EquivalenceCheckError = e.into();
        assert!(wrapped.divergence().is_some());
        assert!(wrapped.to_string().contains("cycle 5"));
    }
}
