//! Bench: the end-to-end compile flow and device stepping.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mcfpga::netlist::{workload, RandomNetlistParams};
use mcfpga::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench(c: &mut Criterion) {
    let arch = ArchSpec::paper_default();
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 21);
    c.bench_function("compile_4ctx_workload", |b| {
        b.iter(|| MultiDevice::compile_aligned(black_box(&arch), &w).unwrap())
    });
    let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
    let n_in = w[0].inputs().len();
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("device_step_with_context_switches", |b| {
        b.iter(|| {
            let ctx = rng.gen_range(0..4);
            dev.switch_context(ctx);
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            black_box(dev.step(&inputs))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
