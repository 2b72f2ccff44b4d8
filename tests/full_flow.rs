//! Integration: the complete flow (map -> share -> place -> route ->
//! logic-block construction -> simulate) over the circuit library, on both
//! device flavours.

use mcfpga::netlist::{library, workload, RandomNetlistParams};
use mcfpga::prelude::*;

#[test]
fn every_library_circuit_compiles_and_verifies_replicated() {
    let arch = ArchSpec::paper_default();
    for circuit in library::benchmark_suite() {
        let contexts = vec![circuit.clone(); 4];
        let mut dev = MultiDevice::compile_aligned(&arch, &contexts)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        dev.check_routing()
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        check_device_equivalence(&mut dev, &contexts, 30, 7)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        // Fully replicated contexts collapse to one plane everywhere.
        assert_eq!(dev.report().mean_planes, 1.0, "{}", circuit.name());
    }
}

#[test]
fn perturbed_workloads_compile_and_verify_across_change_rates() {
    let arch = ArchSpec::paper_default();
    for (seed, rate) in [(1u64, 0.02), (2, 0.05), (3, 0.15), (4, 0.40)] {
        let w = workload(
            RandomNetlistParams {
                n_inputs: 7,
                n_gates: 55,
                n_outputs: 6,
                dff_fraction: 0.1,
            },
            4,
            rate,
            seed,
        );
        let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
        dev.check_routing().unwrap();
        check_device_equivalence(&mut dev, &w, 60, seed).unwrap();
        let r = dev.report();
        assert!(r.mean_planes >= 1.0 && r.mean_planes <= 4.0);
    }
}

#[test]
fn plane_demand_tracks_change_rate_end_to_end() {
    let arch = ArchSpec::paper_default();
    let params = RandomNetlistParams {
        n_inputs: 8,
        n_gates: 70,
        n_outputs: 8,
        dff_fraction: 0.0,
    };
    let low = MultiDevice::compile_aligned(&arch, &workload(params, 4, 0.02, 9)).unwrap();
    let high = MultiDevice::compile_aligned(&arch, &workload(params, 4, 0.35, 9)).unwrap();
    assert!(
        low.report().mean_planes < high.report().mean_planes,
        "low {} vs high {}",
        low.report().mean_planes,
        high.report().mean_planes
    );
}

#[test]
fn heterogeneous_device_runs_every_context_correctly() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![
        library::adder(4),
        library::subtractor(4),
        library::parity(8),
        library::gray_encoder(6),
    ];
    let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
    dev.check_routing().unwrap();
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..60 {
        let c = rng.gen_range(0..circuits.len());
        dev.switch_context(c);
        let n_in = circuits[c].inputs().len();
        let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(
            dev.step(&inputs),
            circuits[c].eval_comb(&inputs).unwrap(),
            "context {c}"
        );
    }
}

#[test]
fn bigger_grids_and_more_contexts_compile() {
    // 8-context fabric on a larger grid.
    let arch = ArchSpec::paper_default().with_grid(10, 10).with_contexts(8);
    let w = workload(
        RandomNetlistParams {
            n_inputs: 6,
            n_gates: 40,
            n_outputs: 5,
            dff_fraction: 0.0,
        },
        8,
        0.05,
        17,
    );
    let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
    check_device_equivalence(&mut dev, &w, 40, 17).unwrap();
}

#[test]
fn workload_larger_than_contexts_is_rejected() {
    let arch = ArchSpec::paper_default().with_contexts(2);
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 3);
    let result = std::panic::catch_unwind(|| MultiDevice::compile_aligned(&arch, &w));
    assert!(
        result.is_err(),
        "4 contexts on a 2-context device must panic"
    );
}

#[test]
fn extended_library_compiles_and_verifies() {
    use mcfpga::netlist::library2;
    let arch = ArchSpec::paper_default();
    for circuit in library2::extended_suite() {
        let contexts = vec![circuit.clone(); 4];
        let mut dev = MultiDevice::compile_aligned(&arch, &contexts)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        check_device_equivalence(&mut dev, &contexts, 30, 13)
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
    }
}

#[test]
fn adaptive_compile_equivalence_across_the_library() {
    use mcfpga::netlist::library;
    let arch = ArchSpec::paper_default();
    for circuit in [
        library::adder(4),
        library::comparator(4),
        library::gray_encoder(6),
    ] {
        let contexts = vec![circuit.clone(); 4];
        let mut dev = MultiDevice::compile_aligned_adaptive(&arch, &contexts).unwrap();
        assert_eq!(
            dev.report().granularity,
            6,
            "{} fully shared",
            circuit.name()
        );
        check_device_equivalence(&mut dev, &contexts, 40, 21).unwrap();
    }
}

#[test]
fn text_format_survives_the_full_flow() {
    // Netlist -> text -> netlist -> device, still equivalent to the original.
    use mcfpga::netlist::{from_text, library, to_text};
    let arch = ArchSpec::paper_default();
    let original = library::alu(4);
    let reparsed = from_text(&to_text(&original)).unwrap();
    let contexts = vec![reparsed; 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &contexts).unwrap();
    // Check against the *original* netlist: the text roundtrip must not
    // have changed behaviour.
    let originals = vec![original; 4];
    check_device_equivalence(&mut dev, &originals, 50, 8).unwrap();
}
