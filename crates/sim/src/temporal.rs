//! Temporal execution on the fabric: a circuit too big for the array runs
//! across contexts, transfer registers carrying values between stages —
//! the DPGA story of the paper's introduction, demonstrated on the
//! compiled device.
//!
//! Each stage of a [`TemporalDesign`] is an ordinary mapped netlist, so the
//! heterogeneous [`MultiDevice`] hosts one stage per context. A macro-cycle
//! activates the contexts in order; between steps the executor shuttles the
//! shared transfer-register file into and out of the active context's
//! register state (physically these are the same logic-block flip-flops —
//! per-stage register *placement* coupling is not modelled; the register
//! file is the architectural contract).

use mcfpga_map::{TemporalDesign, TemporalOutput};

use crate::multi::MultiDevice;

/// Driver for one temporal design on a compiled device.
pub struct FabricTemporalExecutor<'a> {
    device: &'a mut MultiDevice,
    design: TemporalDesign,
    regs: Vec<bool>,
}

impl<'a> FabricTemporalExecutor<'a> {
    /// The device must have been compiled from `design.stages[..].netlist`
    /// in stage order (see [`MultiDevice::compile_mapped`]).
    pub fn new(device: &'a mut MultiDevice, design: TemporalDesign) -> Self {
        assert_eq!(
            device.n_contexts(),
            design.stages.len(),
            "device contexts must be the design's stages"
        );
        let regs = vec![false; design.n_registers];
        FabricTemporalExecutor {
            device,
            design,
            regs,
        }
    }

    /// One macro-cycle through all contexts.
    pub fn run(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.design.n_inputs, "input arity");
        for (s, stage) in self.design.stages.iter().enumerate() {
            // Load this stage's register view into the context's state.
            let view: Vec<bool> = stage.registers.iter().map(|&g| self.regs[g]).collect();
            self.device.set_registers(s, &view);
            self.device.switch_context(s);
            let _ = self.device.step(inputs);
            // Commit the context's registers back to the shared file.
            let after = self.device.registers(s).to_vec();
            for (slot, &g) in stage.registers.iter().enumerate() {
                self.regs[g] = after[slot];
            }
        }
        self.design
            .outputs
            .iter()
            .map(|(_, out)| match out {
                TemporalOutput::Register(g) => self.regs[*g],
                TemporalOutput::Input(p) => inputs[*p],
                TemporalOutput::Const(c) => *c,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_arch::ArchSpec;
    use mcfpga_map::{map_netlist, temporal_partition};
    use mcfpga_netlist::library;
    use mcfpga_place::PlacementProblem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The headline demonstration: a 3-bit multiplier that cannot fit a
    /// 3x3 single-context fabric runs correctly across its 4 contexts.
    #[test]
    fn oversized_multiplier_runs_across_contexts() {
        let arch = ArchSpec::paper_default().with_grid(3, 3);
        let circuit = library::multiplier(3);
        let mapped = map_netlist(&circuit, arch.lut.min_inputs).unwrap();

        // Too big for one context: placement must reject it.
        assert!(
            PlacementProblem::from_mapped(&mapped, &arch).is_err(),
            "mul3 ({} LUTs) must overflow the 3x3 array",
            mapped.luts.len()
        );

        // Temporal split into <= 4 stages, each within the array capacity.
        let capacity = arch.n_logic_blocks() * arch.lut.outputs;
        let design = temporal_partition(&mapped, capacity).unwrap();
        assert!(design.n_stages() <= arch.n_contexts);
        let stage_netlists: Vec<_> = design.stages.iter().map(|s| s.netlist.clone()).collect();
        let mut dev = MultiDevice::compile_mapped(&arch, &stage_netlists).unwrap();
        let mut exec = FabricTemporalExecutor::new(&mut dev, design);

        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            let inputs: Vec<bool> = (0..6).map(|_| rng.gen_bool(0.5)).collect();
            let expect = circuit.eval_comb(&inputs).unwrap();
            assert_eq!(exec.run(&inputs), expect);
        }
    }

    #[test]
    fn fabric_and_reference_executors_agree() {
        use mcfpga_map::TemporalExecutor;
        let arch = ArchSpec::paper_default().with_grid(4, 4);
        let circuit = library::alu(4);
        let mapped = map_netlist(&circuit, arch.lut.min_inputs).unwrap();
        let capacity = 12; // force several stages
        let design = temporal_partition(&mapped, capacity).unwrap();
        let stage_netlists: Vec<_> = design.stages.iter().map(|s| s.netlist.clone()).collect();
        let mut dev = MultiDevice::compile_mapped(&arch, &stage_netlists).unwrap();
        let mut fabric = FabricTemporalExecutor::new(&mut dev, design.clone());
        let mut reference = TemporalExecutor::new(design);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let inputs: Vec<bool> = (0..10).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(fabric.run(&inputs), reference.run(&inputs));
        }
    }
}
