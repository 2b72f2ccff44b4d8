//! Integration: long-running randomized equivalence between the compiled
//! fabric and the golden netlists, with aggressive context switching.

use mcfpga::netlist::{library, workload, RandomNetlistParams};
use mcfpga::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn long_random_equivalence_run() {
    let arch = ArchSpec::paper_default();
    let w = workload(
        RandomNetlistParams {
            n_inputs: 8,
            n_gates: 80,
            n_outputs: 8,
            dff_fraction: 0.15,
        },
        4,
        0.08,
        1234,
    );
    let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
    check_device_equivalence(&mut dev, &w, 400, 1234).unwrap();
}

#[test]
fn equivalence_over_many_seeds() {
    let arch = ArchSpec::paper_default();
    for seed in 100..110u64 {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 45,
                n_outputs: 5,
                dff_fraction: if seed % 3 == 0 { 0.2 } else { 0.0 },
            },
            4,
            0.1,
            seed,
        );
        let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
        check_device_equivalence(&mut dev, &w, 50, seed).unwrap();
    }
}

#[test]
fn sequential_state_is_bit_exact_across_many_switches() {
    // A counter replicated over contexts: after N enabled cycles spread
    // arbitrarily across contexts, the count must be exactly N.
    let arch = ArchSpec::paper_default();
    let cnt = library::counter(6);
    let contexts = vec![cnt.clone(); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
    let mut rng = StdRng::seed_from_u64(55);
    let mut model = 0u64; // software mirror of the register state
    for cycle in 0..200 {
        dev.switch_context(rng.gen_range(0..4));
        let en = rng.gen_bool(0.7);
        let out = dev.step(&[en]);
        // step returns the pre-clock outputs: the value *before* this edge.
        let value: u64 = out.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum();
        assert_eq!(value, model, "cycle {cycle}");
        if en {
            model = (model + 1) % 64;
        }
    }
}

#[test]
fn fir_filter_streams_correctly_on_fabric() {
    let arch = ArchSpec::paper_default();
    let fir = library::fir4(4, [1, 2, 1, 0]);
    let contexts = vec![fir.clone(); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
    let mut st = fir.initial_state();
    let mut rng = StdRng::seed_from_u64(77);
    for cycle in 0..80 {
        if cycle % 9 == 0 {
            dev.switch_context(rng.gen_range(0..4));
        }
        let x: Vec<bool> = (0..4).map(|_| rng.gen_bool(0.5)).collect();
        let expect = fir.step(&x, &mut st).unwrap();
        assert_eq!(dev.step(&x), expect, "cycle {cycle}");
    }
}

#[test]
fn alu_all_opcodes_on_fabric() {
    let arch = ArchSpec::paper_default();
    let alu = library::alu(4);
    let contexts = vec![alu.clone(); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
    for x in 0..16u64 {
        for op in 0..4u64 {
            let mut inputs: Vec<bool> = (0..4).map(|i| (x >> i) & 1 == 1).collect();
            inputs.extend((0..4).map(|i| ((x ^ 0b1010) >> i) & 1 == 1));
            inputs.push(op & 1 == 1);
            inputs.push(op & 2 == 2);
            let expect = alu.eval_comb(&inputs).unwrap();
            assert_eq!(dev.step(&inputs), expect, "x={x} op={op}");
        }
    }
}
