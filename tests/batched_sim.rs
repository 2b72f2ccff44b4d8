//! Cross-crate properties of the bit-parallel compiled simulation kernel:
//! batched and scalar stepping must agree bit-exactly on all 64 lanes over
//! random workloads, random context switches, random register state, and
//! injected configuration faults; a whole job stepped in place must equal
//! one step per cycle; and kernel caches must invalidate when the
//! configuration mutates.

use mcfpga::netlist::{library, random_netlist, workload, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::sim::{ActivityReport, CompiledKernel, KernelScratch, LutFault, ProbeSet, LANES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One activity-census total summed over every context of `dev`.
fn census_total(dev: &MultiDevice, total: impl Fn(&ActivityReport) -> u64) -> u64 {
    (0..dev.n_contexts())
        .map(|c| total(&dev.activity_census(c).unwrap()))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Aligned-workload device: a batched run over random context switches
    /// (word boundaries, all lanes together) equals 64 scalar replays, lane
    /// by lane, outputs and census toggle accounting both — with and without
    /// an injected LUT fault.
    #[test]
    fn device_batched_matches_scalar_on_all_lanes(
        seed in 0u64..10_000,
        n_ctx in 1usize..=4,
        inject in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 30,
                n_outputs: 4,
                dff_fraction: 0.2,
            },
            n_ctx,
            0.2,
            seed,
        );
        let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
        dev.enable_activity_census();
        if inject {
            dev.inject_lut_fault(LutFault { lb: 0, output: 0, plane: 0, assignment: 1 });
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let words = 6usize;
        let schedule: Vec<(usize, Vec<u64>)> = (0..words)
            .map(|_| {
                (
                    rng.gen_range(0..n_ctx),
                    (0..6).map(|_| rng.next_u64()).collect(),
                )
            })
            .collect();
        // Batched run.
        dev.reset();
        let mut batch_out = Vec::with_capacity(words);
        for (c, inputs) in &schedule {
            dev.switch_context(*c);
            batch_out.push(dev.step_batch(inputs));
        }
        let batch_toggles = census_total(&dev, |r| r.toggles_total);
        prop_assert_eq!(census_total(&dev, |r| r.lane_cycles), (words * LANES) as u64);
        // Scalar replay, lane by lane, on the same (possibly faulty) device.
        let mut toggle_sum = 0u64;
        for lane in 0..LANES {
            dev.reset();
            for (word, (c, inputs)) in schedule.iter().enumerate() {
                dev.switch_context(*c);
                let bits: Vec<bool> = inputs.iter().map(|iw| (iw >> lane) & 1 == 1).collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    prop_assert_eq!(
                        (batch_out[word][o] >> lane) & 1 == 1,
                        b,
                        "word {} lane {} output {}",
                        word,
                        lane,
                        o
                    );
                }
            }
            toggle_sum += census_total(&dev, |r| r.toggles_total);
        }
        // The batched popcount accounting equals the sum of its lanes'
        // scalar toggle counts.
        prop_assert_eq!(batch_toggles, toggle_sum);
    }

    /// Heterogeneous device: independent circuits per context, random
    /// initial register state, random word-boundary context switches —
    /// batched equals 64 scalar replays on every lane, with and without an
    /// injected LUT fault, and with and without the census observing the
    /// same optimized kernel.
    #[test]
    fn multi_batched_matches_scalar_on_all_lanes(
        seed in 0u64..10_000,
        n_ctx in 1usize..=3,
        inject in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let circuits: Vec<Netlist> = (0..n_ctx)
            .map(|c| {
                random_netlist(
                    RandomNetlistParams {
                        n_inputs: 5,
                        n_gates: 25,
                        n_outputs: 3,
                        dff_fraction: 0.15,
                    },
                    seed.wrapping_add(c as u64 * 7919),
                )
            })
            .collect();
        let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
        if observed {
            dev.enable_activity_census();
        }
        if inject {
            dev.inject_lut_fault(LutFault { lb: 0, output: 0, plane: 0, assignment: 1 });
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let init: Vec<Vec<bool>> = (0..n_ctx)
            .map(|c| (0..dev.registers(c).len()).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let words = 5usize;
        let schedule: Vec<(usize, Vec<u64>)> = (0..words)
            .map(|_| {
                (
                    rng.gen_range(0..n_ctx),
                    (0..5).map(|_| rng.next_u64()).collect(),
                )
            })
            .collect();
        // Batched run from the random register state.
        for (c, bits) in init.iter().enumerate() {
            dev.set_registers(c, bits);
        }
        let mut batch_out = Vec::with_capacity(words);
        for (c, inputs) in &schedule {
            dev.switch_context(*c);
            batch_out.push(dev.step_batch(inputs));
        }
        // Scalar replay, lane by lane, restoring the same register state.
        for lane in 0..LANES {
            for (c, bits) in init.iter().enumerate() {
                dev.set_registers(c, bits);
            }
            for (word, (c, inputs)) in schedule.iter().enumerate() {
                dev.switch_context(*c);
                let bits: Vec<bool> = inputs.iter().map(|iw| (iw >> lane) & 1 == 1).collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    prop_assert_eq!(
                        (batch_out[word][o] >> lane) & 1 == 1,
                        b,
                        "word {} lane {} output {}",
                        word,
                        lane,
                        o
                    );
                }
            }
        }
    }
    /// Kernel-optimizer soundness end to end: the same device stepped with
    /// its default, optimized batched kernels agrees with the scalar path
    /// (which never touches kernels) on every lane — across random
    /// workloads, random word-boundary context switches, random register
    /// state, and injected configuration faults.
    #[test]
    fn optimized_batched_matches_scalar_on_all_lanes(
        seed in 0u64..10_000,
        n_ctx in 1usize..=4,
        inject in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let w = workload(
            RandomNetlistParams {
                n_inputs: 6,
                n_gates: 30,
                n_outputs: 4,
                dff_fraction: 0.2,
            },
            n_ctx,
            0.2,
            seed,
        );
        let mut dev = MultiDevice::compile_aligned(&arch, &w).unwrap();
        if inject {
            dev.inject_lut_fault(LutFault { lb: 0, output: 0, plane: 0, assignment: 1 });
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD1);
        let words = 6usize;
        let schedule: Vec<(usize, Vec<u64>)> = (0..words)
            .map(|_| {
                (
                    rng.gen_range(0..n_ctx),
                    (0..6).map(|_| rng.next_u64()).collect(),
                )
            })
            .collect();
        dev.reset();
        let mut batch_out = Vec::with_capacity(words);
        for (c, inputs) in &schedule {
            dev.switch_context(*c);
            batch_out.push(dev.step_batch(inputs));
        }
        for lane in 0..LANES {
            dev.reset();
            for (word, (c, inputs)) in schedule.iter().enumerate() {
                dev.switch_context(*c);
                let bits: Vec<bool> = inputs.iter().map(|iw| (iw >> lane) & 1 == 1).collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    prop_assert_eq!(
                        (batch_out[word][o] >> lane) & 1 == 1,
                        b,
                        "word {} lane {} output {}",
                        word,
                        lane,
                        o
                    );
                }
            }
        }
    }

    /// Throughput runner: every chunk word is an *independent* 64-lane
    /// stimulus stream, so a width-`W` run equals `W` separate width-1
    /// serial runs of the device's unoptimized lowering, word for word, at
    /// every supported width and thread count, with and without the census
    /// observing — and the width-1 reference itself equals 64 scalar
    /// replays, lane by lane, from the same random register state.
    #[test]
    fn throughput_runner_matches_reference_at_every_width(
        seed in 0u64..10_000,
        observed in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let circuits = vec![random_netlist(
            RandomNetlistParams {
                n_inputs: 5,
                n_gates: 25,
                n_outputs: 3,
                dff_fraction: 0.2,
            },
            seed,
        )];
        let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
        let n_inputs = 5usize;
        let n_outputs = dev.kernel(0).unwrap().n_outputs();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let init: Vec<bool> = (0..dev.registers(0).len()).map(|_| rng.gen_bool(0.5)).collect();
        dev.set_registers(0, &init);
        // One narrow stream per word of the widest chunk; every stream (and
        // every chunk word of a wide run) starts from the same broadcast
        // register state, because the runner never writes state back.
        let n_chunks = 8usize;
        let max_width = *mcfpga::sim::SUPPORTED_WIDTHS.last().unwrap();
        let streams: Vec<Vec<u64>> = (0..max_width)
            .map(|_| (0..n_chunks * n_inputs).map(|_| rng.next_u64()).collect())
            .collect();
        // The references step the unoptimized lowering from the same
        // broadcast register state.
        let plain = dev.compiled_kernels().remove(0);
        let refs: Vec<Vec<u64>> = streams
            .iter()
            .map(|s| {
                let mut regs: Vec<u64> = init.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let (mut scratch, mut out, mut words) = (KernelScratch::new(), Vec::new(), Vec::new());
                for inputs in s.chunks(n_inputs) {
                    plain.step(inputs, &mut regs, &mut scratch, &mut out);
                    words.extend_from_slice(&out);
                }
                words
            })
            .collect();
        prop_assert_eq!(refs[0].len(), n_chunks * n_outputs);
        if observed {
            dev.enable_activity_census();
        }
        for &width in mcfpga::sim::SUPPORTED_WIDTHS {
            // Interleave the first `width` streams: stream `w` becomes word
            // `w` of every chunk.
            let mut wide = vec![0u64; n_chunks * n_inputs * width];
            for t in 0..n_chunks {
                for i in 0..n_inputs {
                    for w in 0..width {
                        wide[(t * n_inputs + i) * width + w] = streams[w][t * n_inputs + i];
                    }
                }
            }
            for threads in [1usize, 3] {
                let out = dev.run_throughput(0, &wide, width, threads);
                prop_assert_eq!(out.len(), n_chunks * n_outputs * width);
                for t in 0..n_chunks {
                    for o in 0..n_outputs {
                        for w in 0..width {
                            prop_assert_eq!(
                                out[(t * n_outputs + o) * width + w],
                                refs[w][t * n_outputs + o],
                                "width {} threads {} chunk {} output {} word {}",
                                width, threads, t, o, w
                            );
                        }
                    }
                }
            }
        }
        // Scalar replay of stream 0's reference: the runner left the
        // registers untouched, so every replay starts from the same state.
        prop_assert_eq!(dev.registers(0), init.as_slice());
        for lane in 0..LANES {
            dev.set_registers(0, &init);
            for t in 0..n_chunks {
                let bits: Vec<bool> = (0..n_inputs)
                    .map(|i| (streams[0][t * n_inputs + i] >> lane) & 1 == 1)
                    .collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    prop_assert_eq!(
                        (refs[0][t * n_outputs + o] >> lane) & 1 == 1,
                        b,
                        "chunk {} lane {} output {}",
                        t,
                        lane,
                        o
                    );
                }
            }
        }
    }

    /// The served-job form of the kernel: `step_rows` over a job of every
    /// length from 0 to 17 rows, so jobs start and end mid-block, equals one
    /// `step` per row, outputs and final registers both. It runs on a random
    /// netlist with or without registers and on library circuits whose
    /// registers feed registers (an LFSR and a serial CRC), from random
    /// register state, on the optimized kernels, with and without the census
    /// observing. One scratch serves every kernel and length.
    #[test]
    fn step_rows_matches_one_step_per_row(
        seed in 0u64..10_000,
        registered in any::<bool>(),
        observed in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let random = random_netlist(
            RandomNetlistParams {
                n_inputs: 5,
                n_gates: 25,
                n_outputs: 3,
                dff_fraction: if registered { 0.25 } else { 0.0 },
            },
            seed,
        );
        let circuits = vec![random, library::lfsr(8, 0x8E), library::crc_serial(8, 0x07)];
        let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
        if observed {
            dev.enable_activity_census();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut shared = KernelScratch::new();
        for c in 0..circuits.len() {
            let kernel = dev.kernel(c).unwrap().clone();
            prop_assert_eq!(&kernel, &dev.compiled_kernels()[c].optimize());
            let (n_in, n_regs) = (kernel.n_inputs(), kernel.n_regs());
            for len in 0..=17usize {
                let rows: Vec<Vec<u64>> = (0..len)
                    .map(|_| (0..n_in).map(|_| rng.next_u64()).collect())
                    .collect();
                let start: Vec<u64> = (0..n_regs).map(|_| rng.next_u64()).collect();
                let (mut want_regs, mut want) = (start.clone(), Vec::new());
                let mut scratch = KernelScratch::new();
                for row in &rows {
                    let mut out = Vec::new();
                    kernel.step(row, &mut want_regs, &mut scratch, &mut out);
                    want.push(out);
                }
                let (mut got, mut regs) = (rows, start);
                kernel.step_rows(&mut got, &mut regs, &mut shared);
                prop_assert_eq!(&got, &want, "context {} length {}: outputs", c, len);
                prop_assert_eq!(&regs, &want_regs, "context {} length {}: registers", c, len);
            }
        }
    }
}

/// Regression: a fault injected after a batched step must show up in the
/// next batched step — a stale cached kernel would silently keep replaying
/// the pre-fault logic — while the census observes every step.
#[test]
fn kernel_cache_invalidates_after_fault_injection() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![library::parity(8); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &circuits).unwrap();
    dev.enable_activity_census();
    let mut rng = StdRng::seed_from_u64(42);
    let words: Vec<Vec<u64>> = (0..20)
        .map(|_| (0..8).map(|_| rng.next_u64()).collect())
        .collect();
    let healthy: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    let fault = LutFault {
        lb: 0,
        output: 0,
        plane: 0,
        assignment: 3,
    };
    dev.inject_lut_fault(fault);
    let faulty: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    assert_ne!(healthy, faulty, "stale kernel reused pre-fault logic");
    // The post-fault batch agrees with the post-fault scalar path on the
    // first diverging word (parity is combinational, so words replay
    // independently).
    let w = healthy
        .iter()
        .zip(&faulty)
        .position(|(h, f)| h != f)
        .unwrap();
    for lane in 0..LANES {
        let bits: Vec<bool> = words[w].iter().map(|iw| (iw >> lane) & 1 == 1).collect();
        let out = dev.step(&bits);
        for (o, &b) in out.iter().enumerate() {
            assert_eq!((faulty[w][o] >> lane) & 1 == 1, b, "lane {lane} output {o}");
        }
    }
    // Clearing the fault invalidates again and restores the healthy words.
    dev.clear_lut_fault(fault);
    let cleared: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    assert_eq!(healthy, cleared);
}

/// Regression: the config-epoch invalidation must cover *optimized* cached
/// kernels too — a fault injected between optimized batched steps rebuilds
/// (and re-optimizes) the kernel instead of replaying pre-fault logic.
#[test]
fn optimized_kernel_cache_invalidates_after_fault_injection() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![library::parity(8); 4];
    let mut dev = MultiDevice::compile_aligned(&arch, &circuits).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let words: Vec<Vec<u64>> = (0..20)
        .map(|_| (0..8).map(|_| rng.next_u64()).collect())
        .collect();
    let healthy: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    let fault = LutFault {
        lb: 0,
        output: 0,
        plane: 0,
        assignment: 3,
    };
    dev.inject_lut_fault(fault);
    let faulty: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    assert_ne!(
        healthy, faulty,
        "stale optimized kernel reused pre-fault logic"
    );
    // The faulty optimized batch agrees with the unoptimized lowering of
    // the faulty configuration: the optimizer folds the *post-fault* tables.
    let plain = dev.compiled_kernels().remove(0);
    let (mut scratch, mut out) = (KernelScratch::new(), Vec::new());
    for (word, want) in words.iter().zip(&faulty) {
        plain.step(word, &mut [], &mut scratch, &mut out);
        assert_eq!(&out, want);
    }
    dev.clear_lut_fault(fault);
    let cleared: Vec<Vec<u64>> = words.iter().map(|w| dev.step_batch(w)).collect();
    assert_eq!(healthy, cleared);
}

/// A device runs one kernel per context whoever observes it: arming and
/// disarming probes and enabling the activity census, with observed steps
/// in between, leave every context's kernel equal to its optimized
/// lowering, and no kernel is built again.
#[test]
fn observers_reuse_the_optimized_kernel() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![library::parity(8), library::adder(2)];
    let rec = Recorder::enabled();
    let mut dev = MultiDevice::compile_with(&arch, &circuits, &rec).unwrap();
    let optimized: Vec<CompiledKernel> = dev
        .compiled_kernels()
        .iter()
        .map(|k| k.optimize())
        .collect();
    let check = |dev: &mut MultiDevice, when: &str| {
        dev.step_batch(&[!0; 8]);
        for (c, want) in optimized.iter().enumerate() {
            assert_eq!(dev.kernel(c).unwrap(), want, "{when}: context {c}");
        }
        let spans = rec.report("kernels").spans;
        let builds = spans
            .iter()
            .filter(|s| s.name == "sim_kernel_build")
            .count();
        assert_eq!(builds, circuits.len(), "{when}: a kernel was built again");
    };
    check(&mut dev, "unobserved");
    let signal = dev.probe_signals(0).unwrap()[0].clone();
    dev.arm_probes(0, &ProbeSet::new().tap(&signal)).unwrap();
    check(&mut dev, "probes armed");
    dev.disarm_probes(0).unwrap();
    check(&mut dev, "probes disarmed");
    dev.enable_activity_census();
    check(&mut dev, "census enabled");
}

/// Scalar steps resynchronise the lanes: a scalar step advances lane 0 and
/// writes its next state to every lane, so batched → scalar → batched
/// stepping equals a batched run restarted from the broadcast of lane 0.
#[test]
fn scalar_step_broadcasts_lane_zero_to_every_lane() {
    let arch = ArchSpec::paper_default();
    let circuits = vec![library::counter(4), library::lfsr(8, 0x8E)];
    let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    for (c, circuit) in circuits.iter().enumerate() {
        let n_in = circuit.inputs().len();
        let n_regs = dev.registers(c).len();
        let random_words =
            |rng: &mut StdRng, n: usize| -> Vec<u64> { (0..n).map(|_| rng.next_u64()).collect() };
        dev.switch_context(c);
        // Diverge the lanes: random per-lane registers, then batched steps.
        let lanes = random_words(&mut rng, n_regs);
        dev.try_set_lane_registers(c, &lanes).unwrap();
        for _ in 0..3 {
            dev.step_batch(&random_words(&mut rng, n_in));
        }
        // One scalar step: every lane now holds lane 0's next state.
        let bits: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
        dev.step(&bits);
        let after: Vec<bool> = dev.registers(c).to_vec();
        let broadcast: Vec<u64> = after.iter().map(|&b| if b { !0 } else { 0 }).collect();
        assert_eq!(dev.lane_registers(c).unwrap(), broadcast, "context {c}");
        // Batched again, then the same words from a restart at the broadcast.
        let tail: Vec<Vec<u64>> = (0..3).map(|_| random_words(&mut rng, n_in)).collect();
        let resumed: Vec<Vec<u64>> = tail.iter().map(|w| dev.step_batch(w)).collect();
        let resumed_regs = dev.lane_registers(c).unwrap();
        dev.set_registers(c, &after);
        let restarted: Vec<Vec<u64>> = tail.iter().map(|w| dev.step_batch(w)).collect();
        assert_eq!(resumed, restarted, "context {c}");
        assert_eq!(resumed_regs, dev.lane_registers(c).unwrap(), "context {c}");
    }
}
