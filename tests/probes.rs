//! Cross-crate properties of the fabric signal probes: armed probes must
//! record exactly what the 64-lane kernel computed (checked lane by lane
//! against scalar replays, across context switches and random register
//! state), and probing must never perturb the simulation itself — the
//! batched outputs with probes armed, disarmed, or never armed are
//! bit-identical.

use mcfpga::netlist::{random_netlist, Netlist, RandomNetlistParams};
use mcfpga::prelude::*;
use mcfpga::sim::{ProbeSet, LANES, SUPPORTED_WIDTHS};
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
    /// per-stream sums. Observability also pins the kernel to its
    /// unoptimized lowering — an optimized kernel cached by an earlier,
    /// unobserved run must not change any sample.
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
                // Caches the optimized kernel; arming must replace it.
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
