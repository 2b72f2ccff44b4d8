//! Cross-crate properties of the fabric signal probes: armed probes must
//! record exactly what the 64-lane kernel computed (checked lane by lane
//! against scalar replays, across context switches and random register
//! state), and probing must never perturb the simulation itself — the
//! batched outputs with probes armed, disarmed, or never armed are
//! bit-identical.

use mcfpga::map::mapper::MappedDff;
use mcfpga::map::{MappedLut, MappedNetlist, MappedSource};
use mcfpga::netlist::{random_netlist, Netlist, NodeId, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::sim::{LutActivity, ProbeSet, LANES, SUPPORTED_WIDTHS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn random_circuits(seed: u64, n_ctx: usize) -> Vec<Netlist> {
    (0..n_ctx)
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
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Probes armed on every context's outputs and registers capture, word
    /// for word, what 64 scalar replays observe on each lane — across
    /// random word-boundary context switches and random initial registers.
    #[test]
    fn probe_samples_match_scalar_replay_on_all_lanes(
        seed in 0u64..10_000,
        n_ctx in 1usize..=3,
    ) {
        let arch = ArchSpec::paper_default();
        let circuits = random_circuits(seed, n_ctx);
        let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
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

        // Arm every output and every register of every context.
        let n_outs: Vec<usize> = (0..n_ctx).map(|c| dev.n_outputs(c).unwrap()).collect();
        for (c, &n_out) in n_outs.iter().enumerate() {
            let mut set = ProbeSet::new();
            for name in &dev.probe_signals(c).unwrap()[..n_out] {
                set = set.tap(name);
            }
            for r in 0..dev.registers(c).len() {
                set = set.tap(&format!("reg{r}"));
            }
            dev.arm_probes(c, &set).unwrap();
        }

        // Batched run from the random register state.
        for (c, bits) in init.iter().enumerate() {
            dev.set_registers(c, bits);
        }
        let mut batch_out = Vec::with_capacity(words);
        for (c, inputs) in &schedule {
            dev.switch_context(*c);
            batch_out.push(dev.step_batch(inputs));
        }

        // The output probes' samples are exactly the batched output words of
        // their context's steps, in schedule order.
        for (c, &n_out) in n_outs.iter().enumerate() {
            let steps: Vec<usize> = schedule
                .iter()
                .enumerate()
                .filter(|(_, (sc, _))| *sc == c)
                .map(|(w, _)| w)
                .collect();
            let captures = dev.probe_captures(c).unwrap();
            for (o, cap) in captures.iter().take(n_out).enumerate() {
                prop_assert_eq!(cap.samples.len(), steps.len());
                for (s, &word) in steps.iter().enumerate() {
                    prop_assert_eq!(
                        cap.samples[s],
                        batch_out[word][o],
                        "context {} output {} step {}",
                        c,
                        o,
                        s
                    );
                }
            }
        }

        // Register probes, lane by lane against scalar replays: the sample
        // at each step holds the pre-edge register value — what the cycle's
        // logic and outputs actually saw.
        for lane in 0..LANES {
            let mut regs_before: Vec<Vec<Vec<bool>>> = vec![Vec::new(); n_ctx];
            for (c, bits) in init.iter().enumerate() {
                dev.set_registers(c, bits);
            }
            for (c, inputs) in &schedule {
                dev.switch_context(*c);
                regs_before[*c].push(dev.registers(*c).to_vec());
                let bits: Vec<bool> = inputs.iter().map(|iw| (iw >> lane) & 1 == 1).collect();
                dev.step(&bits);
            }
            for c in 0..n_ctx {
                let captures = dev.probe_captures(c).unwrap();
                for (r, cap) in captures.iter().skip(n_outs[c]).enumerate() {
                    for (s, &sample) in cap.samples.iter().enumerate() {
                        prop_assert_eq!(
                            (sample >> lane) & 1 == 1,
                            regs_before[c][s][r],
                            "context {} reg {} step {} lane {}",
                            c,
                            r,
                            s,
                            lane
                        );
                    }
                }
            }
        }
    }

    /// Probing never perturbs the simulation: the batched outputs of a
    /// probed run, a probed-then-disarmed run, and a never-probed run are
    /// bit-identical on every lane, and the final register state agrees.
    #[test]
    fn probes_do_not_perturb_the_batched_outputs(
        seed in 0u64..10_000,
        n_ctx in 1usize..=3,
    ) {
        let arch = ArchSpec::paper_default();
        let circuits = random_circuits(seed, n_ctx);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
        let words = 6usize;
        let schedule: Vec<(usize, Vec<u64>)> = (0..words)
            .map(|_| {
                (
                    rng.gen_range(0..n_ctx),
                    (0..5).map(|_| rng.next_u64()).collect(),
                )
            })
            .collect();
        let run = |dev: &mut MultiDevice| -> Vec<Vec<u64>> {
            dev.reset();
            schedule
                .iter()
                .map(|(c, inputs)| {
                    dev.switch_context(*c);
                    dev.step_batch(inputs)
                })
                .collect()
        };

        let mut plain = MultiDevice::compile(&arch, &circuits).unwrap();
        let baseline = run(&mut plain);

        let mut probed = MultiDevice::compile(&arch, &circuits).unwrap();
        probed.enable_activity_census();
        for c in 0..n_ctx {
            // Tap every probe-able signal through a deliberately tiny ring:
            // overflow (drop-oldest) must not perturb the outputs either.
            let mut set = ProbeSet::new().with_capacity(2);
            for name in probed.probe_signals(c).unwrap() {
                set = set.tap(&name);
            }
            probed.arm_probes(c, &set).unwrap();
        }
        prop_assert_eq!(&run(&mut probed), &baseline, "armed probes perturbed outputs");

        for c in 0..n_ctx {
            probed.disarm_probes(c).unwrap();
            prop_assert!(probed.probe_captures(c).unwrap().is_empty());
        }
        prop_assert_eq!(&run(&mut probed), &baseline, "disarmed probes perturbed outputs");
        for c in 0..n_ctx {
            prop_assert_eq!(probed.registers(c), plain.registers(c), "context {}", c);
        }
    }

    /// Probes and the activity census see *every* lane of a wide throughput
    /// run: at chunk width `W`, each probe records all `W` words per step
    /// (64·W lanes), matching the width-1 captures of the interleaved
    /// streams word for word, and census toggles / lane-cycles equal the
    /// per-stream sums. With `warm`, an unobserved run first caches the
    /// optimized kernel, which arming then reuses without changing any
    /// sample.
    #[test]
    fn wide_throughput_probes_capture_every_lane(
        seed in 0u64..10_000,
        warm in any::<bool>(),
    ) {
        let arch = ArchSpec::paper_default();
        let circuits = random_circuits(seed, 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let n_inputs = 5usize;
        let n_chunks = 6usize;
        let max_width = *SUPPORTED_WIDTHS.last().unwrap();
        let init: Vec<bool> = {
            let dev = MultiDevice::compile(&arch, &circuits).unwrap();
            (0..dev.registers(0).len()).map(|_| rng.gen_bool(0.5)).collect()
        };
        let streams: Vec<Vec<u64>> = (0..max_width)
            .map(|_| (0..n_chunks * n_inputs).map(|_| rng.next_u64()).collect())
            .collect();
        let armed = |dev: &mut MultiDevice| {
            let mut set = ProbeSet::new();
            for name in dev.probe_signals(0).unwrap() {
                set = set.tap(&name);
            }
            dev.arm_probes(0, &set).unwrap();
            dev.enable_activity_census();
            dev.set_registers(0, &init);
        };
        // Width-1 references: one fresh probed device per stream.
        let mut ref_caps = Vec::with_capacity(max_width);
        let mut ref_toggles = Vec::with_capacity(max_width);
        for stream in &streams {
            let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
            armed(&mut dev);
            dev.run_throughput(0, stream, 1, 1);
            ref_caps.push(dev.probe_captures(0).unwrap());
            ref_toggles.push(dev.activity_census(0).unwrap().toggles_total);
        }
        for &width in SUPPORTED_WIDTHS {
            let mut wide = vec![0u64; n_chunks * n_inputs * width];
            for t in 0..n_chunks {
                for i in 0..n_inputs {
                    for w in 0..width {
                        wide[(t * n_inputs + i) * width + w] = streams[w][t * n_inputs + i];
                    }
                }
            }
            let mut dev = MultiDevice::compile(&arch, &circuits).unwrap();
            if warm {
                // Caches the optimized kernel; arming reuses it.
                dev.run_throughput(0, &wide, width, 3);
            }
            armed(&mut dev);
            // threads > 1 requested: observability must force the ordered
            // serial path rather than fail or drop samples.
            dev.run_throughput(0, &wide, width, 3);
            let captures = dev.probe_captures(0).unwrap();
            prop_assert_eq!(captures.len(), ref_caps[0].len());
            for (p, cap) in captures.iter().enumerate() {
                prop_assert_eq!(cap.samples.len(), n_chunks * width);
                for t in 0..n_chunks {
                    for (w, ref_cap) in ref_caps.iter().enumerate().take(width) {
                        prop_assert_eq!(
                            cap.samples[t * width + w],
                            ref_cap[p].samples[t],
                            "width {} probe {} chunk {} word {}",
                            width,
                            p,
                            t,
                            w
                        );
                    }
                }
                // Lane extraction helper: lane w*64+b of the wide capture is
                // lane b of stream w's width-1 capture.
                let lane = (width - 1) * LANES + 7;
                prop_assert_eq!(
                    cap.lane_bits_wide(width, lane),
                    ref_caps[width - 1][p].lane_bits(7)
                );
            }
            let report = dev.activity_census(0).unwrap();
            prop_assert_eq!(report.lane_cycles, (n_chunks * LANES * width) as u64);
            let want: u64 = ref_toggles[..width].iter().sum();
            prop_assert_eq!(report.toggles_total, want, "width {}", width);
        }
    }
}

/// One context whose LUTs 2 and 3 no output or register reads: LUT 2 ORs
/// an input, the register and the output LUT, and LUT 3 XORs LUT 2 with an
/// input. The register toggles with input 0, and the output ANDs the
/// register's next state with input 1.
fn dead_tail_netlist(k: usize) -> MappedNetlist {
    use MappedSource::{Input, Lut, Register};
    let lut = |root: u32, inputs: Vec<MappedSource>, table: u64| MappedLut {
        root: NodeId(root),
        inputs,
        table,
    };
    MappedNetlist {
        name: "dead_tail".into(),
        k,
        luts: vec![
            lut(3, vec![Input(0), Register(0)], 0b0110),
            lut(4, vec![Lut(0), Input(1)], 0b1000),
            lut(5, vec![Input(2), Register(0), Lut(1)], 0xFE),
            lut(6, vec![Lut(2), Input(0)], 0b0110),
        ],
        dffs: vec![MappedDff {
            d: Lut(0),
            init: false,
        }],
        outputs: vec![("y".into(), Lut(1))],
        n_inputs: 3,
    }
}

/// Lane-cycles a census row was high.
fn high_cycles(lut: &LutActivity, lane_cycles: u64) -> u64 {
    (lut.static_probability * lane_cycles as f64).round() as u64
}

/// Observers see the LUTs the optimizer moved to the dead tail exactly as
/// the scalar path computes them. The kernel steps fewer instructions than
/// the context has LUTs, yet every LUT's census toggles and high cycles,
/// and the samples of probes on the dead LUTs, equal `64 * W` scalar
/// replays, lane by lane: at `W = 1` through `step_batch` and at `W = 8`
/// through `run_throughput`.
#[test]
fn dead_luts_are_observed_like_the_scalar_path() {
    let arch = ArchSpec::paper_default();
    let netlist = dead_tail_netlist(arch.lut.min_inputs);
    let (n_luts, n_inputs) = (netlist.luts.len(), netlist.n_inputs);
    let mut dev = MultiDevice::compile_mapped(&arch, &[netlist]).unwrap();
    assert!(
        dev.kernel(0).unwrap().n_instrs() < n_luts,
        "LUTs 2 and 3 are dead"
    );
    dev.enable_activity_census();
    let n_chunks = 6usize;
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for width in [1usize, 8] {
        let stimulus: Vec<u64> = (0..n_chunks * n_inputs * width)
            .map(|_| rng.next_u64())
            .collect();
        dev.reset();
        dev.arm_probes(0, &ProbeSet::new().tap("lut2").tap("lut3"))
            .unwrap();
        if width == 1 {
            for inputs in stimulus.chunks(n_inputs) {
                dev.step_batch(inputs);
            }
        } else {
            dev.run_throughput(0, &stimulus, width, 2);
        }
        let census = dev.activity_census(0).unwrap();
        let captures = dev.probe_captures(0).unwrap();
        // Scalar replays: a LUT's value at a step is the step's change in
        // its census high count.
        let (mut toggles, mut high) = (vec![0u64; n_luts], vec![0u64; n_luts]);
        for lane in 0..LANES * width {
            dev.reset();
            let mut before = vec![0u64; n_luts];
            for t in 0..n_chunks {
                let bit = |word: u64| (word >> (lane % LANES)) & 1;
                let bits: Vec<bool> = (0..n_inputs)
                    .map(|i| bit(stimulus[(t * n_inputs + i) * width + lane / LANES]) == 1)
                    .collect();
                dev.step(&bits);
                let report = dev.activity_census(0).unwrap();
                let now: Vec<u64> = report
                    .luts
                    .iter()
                    .map(|l| high_cycles(l, report.lane_cycles))
                    .collect();
                for (p, cap) in captures.iter().enumerate() {
                    let l = 2 + p;
                    assert_eq!(
                        bit(cap.samples[t * width + lane / LANES]),
                        now[l] - before[l],
                        "width {width} lane {lane} step {t}: lut{l}"
                    );
                }
                before = now;
            }
            let report = dev.activity_census(0).unwrap();
            for (l, row) in report.luts.iter().enumerate() {
                toggles[l] += row.toggles;
                high[l] += before[l];
            }
        }
        for (l, row) in census.luts.iter().enumerate() {
            assert_eq!(row.toggles, toggles[l], "width {width}: lut{l} toggles");
            let got = high_cycles(row, census.lane_cycles);
            assert_eq!(got, high[l], "width {width}: lut{l} high cycles");
        }
    }
}
