//! `experiments probe` and its report, `BENCH_probe.json`.

use crate::gate::{self, check, labels, Checks, Report, Violation};
use crate::{header, mixed_contexts};
use mcfpga::config::ColumnSetStats;
use mcfpga::netlist::{workload, RandomNetlistParams};
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// Fabric observability: signal-probe overhead and lane-exactness against a
/// scalar replay, the per-LUT activity census and its power-proxy ranking,
/// per-context congestion hot spots, and the context-switch energy model at
/// the paper's 5% change-rate point (`BENCH_probe.json`).
pub fn run() {
    use mcfpga::sim::{ProbeSet, LANES};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    header("probe: signal probes, activity census, congestion, switch energy");
    let arch = ArchSpec::paper_default();
    let circuits = mixed_contexts();
    // The scalar replay below packs a single register file's outputs into
    // lanes, which is only meaningful when the suite carries no state.
    for c in &circuits {
        assert!(
            c.initial_state().bits.is_empty(),
            "mixed suite must be combinational"
        );
    }
    let rec = Recorder::enabled();
    let mut dev = MultiDevice::compile_with(&arch, &circuits, &rec).expect("compile");
    let n_ctx = circuits.len();
    let arity: Vec<usize> = circuits.iter().map(|c| c.inputs().len()).collect();

    // The sim experiment's exact deterministic schedule (same seed, same
    // switch probability).
    let words = 512usize;
    let mut rng = StdRng::seed_from_u64(2027);
    let mut context = 0usize;
    let schedule: Vec<(usize, Vec<u64>)> = (0..words)
        .map(|_| {
            if rng.gen_bool(0.3) {
                context = rng.gen_range(0..n_ctx);
            }
            (
                context,
                (0..arity[context]).map(|_| rng.next_u64()).collect(),
            )
        })
        .collect();

    // Scalar replay: every lane of every word through the interpreted
    // device, outputs packed back into words — the reference the probe
    // rings are checked against bit-for-bit.
    dev.reset();
    let mut bits: Vec<bool> = Vec::new();
    let scalar_words: Vec<Vec<u64>> = schedule
        .iter()
        .map(|(c, inputs)| {
            dev.switch_context(*c);
            let mut packed: Vec<u64> = Vec::new();
            for lane in 0..LANES {
                bits.clear();
                bits.extend(inputs.iter().map(|w| (w >> lane) & 1 == 1));
                let out = dev.step(&bits);
                if lane == 0 {
                    packed = vec![0u64; out.len()];
                }
                for (w, &b) in packed.iter_mut().zip(&out) {
                    *w |= (b as u64) << lane;
                }
            }
            packed
        })
        .collect();

    // Phase 1: the disabled path — no probes armed, no census — against a
    // never-probed twin compiled from the same circuits with the same
    // recorder kind. Both time the same `try_step_batch_into` in interleaved
    // trial pairs, so machine noise hits both sides of a pair alike, and the
    // gate holds the median of the per-pair ratios, which one noisy pair
    // cannot move. The side that runs first alternates from pair to pair, so
    // neither always pays for what the other's pass leaves in the caches. A
    // single 16-pass block is only ~0.5 ms of work.
    let repeats = 16usize;
    let trials = 5usize;
    let pairs = 31usize;
    let time_pass = |dev: &mut MultiDevice| -> u64 {
        dev.reset();
        let start = std::time::Instant::now();
        for _ in 0..repeats {
            for (c, inputs) in &schedule {
                dev.switch_context(*c);
                dev.step_batch(inputs);
            }
        }
        start.elapsed().as_micros().max(1) as u64
    };
    let mut twin =
        MultiDevice::compile_with(&arch, &circuits, &Recorder::enabled()).expect("compile twin");
    let (mut disabled_us, mut plain_us) = (u64::MAX, u64::MAX);
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (disabled, plain) = if i % 2 == 0 {
                let disabled = time_pass(&mut dev);
                (disabled, time_pass(&mut twin))
            } else {
                let plain = time_pass(&mut twin);
                (time_pass(&mut dev), plain)
            };
            disabled_us = disabled_us.min(disabled);
            plain_us = plain_us.min(plain);
            plain as f64 / disabled as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let disabled_to_plain_median = ratios[pairs / 2];
    let vectors = (words * LANES) as u64;
    let per_sec = |us: u64| (vectors * repeats as u64) as f64 / (us as f64 / 1e6);
    let probe_disabled_vectors_per_sec = per_sec(disabled_us);
    let plain_batched_vectors_per_sec = per_sec(plain_us);
    println!(
        "disabled path: {words} words x {LANES} lanes x {repeats} passes, \
         {probe_disabled_vectors_per_sec:.0} vectors/s (no probes, no census); \
         never-probed twin {plain_batched_vectors_per_sec:.0} vectors/s; \
         median disabled/twin ratio {disabled_to_plain_median:.3} over {pairs} trial pairs"
    );

    // Phase 2: arm every context's primary outputs and validate the rings
    // word-for-word — one u64 word compares all 64 lanes at once — against
    // the scalar packs. Capacity covers the whole schedule, so nothing drops.
    for c in 0..n_ctx {
        let names = dev.probe_signals(c).expect("context");
        let n_outs = dev.n_outputs(c).expect("context");
        let mut set = ProbeSet::new().with_capacity(words);
        for n in &names[..n_outs] {
            set = set.tap(n);
        }
        dev.arm_probes(c, &set).expect("output names resolve");
    }
    dev.reset();
    for (c, inputs) in &schedule {
        dev.switch_context(*c);
        dev.step_batch(inputs);
    }
    let mut probe_divergences = 0u64;
    let mut probe_words_checked = 0u64;
    for c in 0..n_ctx {
        let expected: Vec<&Vec<u64>> = schedule
            .iter()
            .zip(&scalar_words)
            .filter(|((sc, _), _)| *sc == c)
            .map(|(_, w)| w)
            .collect();
        for (o, cap) in dev.probe_captures(c).expect("context").iter().enumerate() {
            assert_eq!(cap.dropped, 0, "ring sized for the schedule");
            assert_eq!(cap.samples.len(), expected.len(), "one sample per word");
            for (word, &sample) in cap.samples.iter().enumerate() {
                probe_words_checked += 1;
                if sample != expected[word][o] {
                    probe_divergences += 1;
                }
            }
        }
    }
    println!(
        "probe validation: {probe_words_checked} sampled words x {LANES} lanes, \
         {probe_divergences} divergences vs scalar replay"
    );
    assert_eq!(
        probe_divergences, 0,
        "probes diverged from the scalar replay"
    );
    let vcd_bytes = dev
        .probe_waveform(0, Some(0))
        .expect("context")
        .to_vcd()
        .len();

    // Phase 3: the armed path, timed with the same probes still live.
    let armed_us = (0..trials)
        .map(|_| time_pass(&mut dev))
        .min()
        .expect("trials > 0");
    let probe_armed_vectors_per_sec = per_sec(armed_us);
    let armed_overhead = 1.0 - probe_armed_vectors_per_sec / probe_disabled_vectors_per_sec;
    println!(
        "armed path:    {probe_armed_vectors_per_sec:.0} vectors/s \
         ({:.1}% overhead with every output probed)",
        100.0 * armed_overhead
    );

    // Phase 4: activity census over exactly one schedule pass (probes
    // disarmed), so the seeded ranks are re-derivable and gate-able.
    for c in 0..n_ctx {
        dev.disarm_probes(c).expect("context");
    }
    dev.enable_activity_census();
    dev.reset();
    for (c, inputs) in &schedule {
        dev.switch_context(*c);
        dev.step_batch(inputs);
    }
    let top_n = 8usize;
    let mut activity_top: Vec<ActivityRank> = Vec::new();
    let mut toggle_rates: Vec<f64> = Vec::new();
    let mut census_toggles_total = 0u64;
    println!("\nactivity census (top 5 LUTs of context 0 by power proxy):");
    for c in 0..n_ctx {
        let report = dev.activity_census(c).expect("context");
        census_toggles_total += report.toggles_total;
        toggle_rates.push(dev.toggle_rate(c));
        let ranked = report.ranked();
        if c == 0 {
            for r in ranked.iter().take(5) {
                println!(
                    "  lut{:<4} toggle rate {:.3}  fanout {}  proxy {:.3}",
                    r.lut, r.toggle_rate, r.fanout, r.power_proxy
                );
            }
        }
        activity_top.push(ActivityRank {
            context: c,
            top_luts: ranked.iter().take(top_n).map(|r| r.lut).collect(),
        });
    }

    // Congestion hot spots, one per programmed context.
    println!("\ncongestion (hottest edge per context):");
    let congestion: Vec<CongestionPoint> = dev
        .congestion_maps()
        .iter()
        .enumerate()
        .map(|(c, m)| {
            let hottest = m.hottest(1);
            let point = CongestionPoint {
                context: c,
                edges_used: m.edges.len(),
                peak_utilization: m.peak_utilization(),
                hottest_edge: hottest.first().map_or(0, |e| e.edge),
            };
            println!(
                "  context {c}: {} edges used, peak utilization {:.2}, \
                 hottest edge {}",
                point.edges_used, point.peak_utilization, point.hottest_edge
            );
            point
        })
        .collect();

    // Phase 5: context-switch energy. Two points, both proxy pJ under
    // SWITCH_ENERGY_PJ_PER_BIT (not silicon — see EXPERIMENTS.md):
    //   mixed — the run's own cumulative energy, accumulated by the main
    //   device across every pass above (four unrelated circuits, so most
    //   switch columns flip);
    //   5% point — the paper's operating regime: a structure-preserving
    //   workload compiled aligned (shared placement/routing), where
    //   redundant columns make switches nearly free. Bits flipped per
    //   switch fall straight out of the switch-column patterns.
    let mixed_energy = dev.reconfig_energy();
    let w = workload(RandomNetlistParams::default(), 4, 0.05, 99);
    let edev = MultiDevice::compile_aligned(&arch, &w).expect("compile 5% workload");
    let columns = edev.switch_usage().columns();
    let energy_change_rate = ColumnSetStats::measure(&columns, arch.context_id()).change_rate;
    let energy_switches = 64u64;
    let mut energy_bits_flipped = 0u64;
    let mut from = 0usize;
    for i in 1..=energy_switches {
        let to = (i % 4) as usize;
        energy_bits_flipped += columns
            .iter()
            .filter(|col| col.value_in(from) != col.value_in(to))
            .count() as u64;
        from = to;
    }
    let energy_pj = mcfpga::sim::switch_energy_pj(energy_bits_flipped);
    let pj_per_switch = |pj: f64, n: u64| pj / n.max(1) as f64;
    println!(
        "\nswitch energy (proxy pJ): mixed run {} switches, {:.1} pJ \
         ({:.2} pJ/switch);",
        mixed_energy.switches,
        mixed_energy.energy_pj,
        pj_per_switch(mixed_energy.energy_pj, mixed_energy.switches)
    );
    println!(
        "  5%-change point: {energy_switches} switches over {} columns, \
         {energy_bits_flipped} bits flipped, {energy_pj:.1} pJ \
         ({:.2} pJ/switch, measured change rate {:.1}%)",
        columns.len(),
        pj_per_switch(energy_pj, energy_switches),
        100.0 * energy_change_rate
    );
    if energy_bits_flipped == 0 {
        println!(
            "  (structure-preserving contexts route identically, so every \
             switch column\n   is constant — the paper's redundancy claim: \
             switching costs nothing here)"
        );
    }

    let bench = ProbeBench {
        experiment: "probe".into(),
        words,
        lanes: LANES,
        vectors,
        repeats,
        disabled_us,
        probe_disabled_vectors_per_sec,
        plain_us,
        plain_batched_vectors_per_sec,
        disabled_to_plain_median,
        armed_us,
        probe_armed_vectors_per_sec,
        armed_overhead,
        probe_words_checked,
        probe_divergences,
        vcd_bytes,
        activity_top,
        toggle_rates,
        census_toggles_total,
        congestion,
        mixed_switches: mixed_energy.switches,
        mixed_bits_flipped: mixed_energy.bits_flipped,
        mixed_energy_pj: mixed_energy.energy_pj,
        energy_change_rate,
        energy_switches,
        energy_bits_flipped,
        energy_pj,
        energy_mean_bits_per_switch: energy_bits_flipped as f64 / energy_switches as f64,
        report: rec.report("sim"),
    };
    gate::write(&bench);
}

/// Machine-readable record of the observability benchmark
/// (`BENCH_probe.json`).
#[derive(Serialize, Deserialize)]
pub(crate) struct ProbeBench {
    experiment: String,
    /// Word-steps in the shared schedule; each word carries `lanes` vectors.
    words: usize,
    lanes: usize,
    vectors: u64,
    /// Timed batched passes per trial.
    repeats: usize,
    disabled_us: u64,
    /// Batched throughput with no probes armed and no census, best of 31
    /// trials.
    probe_disabled_vectors_per_sec: f64,
    plain_us: u64,
    /// Batched throughput of a never-probed twin device, best of the 31
    /// trials interleaved with the disabled path's.
    plain_batched_vectors_per_sec: f64,
    /// Median over the 31 trial pairs of disabled over twin throughput,
    /// gated at the baseline's `disabled_overhead_floor`.
    disabled_to_plain_median: f64,
    /// Armed-path time, best of 5 trials.
    armed_us: u64,
    probe_armed_vectors_per_sec: f64,
    /// `1 - armed/disabled` with every primary output probed.
    armed_overhead: f64,
    /// Probe sample words compared against the scalar replay (each word
    /// covers all 64 lanes at once).
    probe_words_checked: u64,
    /// Sample words differing from the replay (gated at 0).
    probe_divergences: u64,
    /// Size of the context-0 lane-0 VCD export.
    vcd_bytes: usize,
    /// Top-8 LUT ids per context by power proxy, deterministic under the
    /// seeded schedule (gated exact against the baseline).
    activity_top: Vec<ActivityRank>,
    toggle_rates: Vec<f64>,
    census_toggles_total: u64,
    congestion: Vec<CongestionPoint>,
    /// Cumulative switch energy of the mixed run itself (every pass above),
    /// accounted by the main device — four unrelated circuits, so most
    /// switch columns flip on every switch.
    mixed_switches: u64,
    mixed_bits_flipped: u64,
    mixed_energy_pj: f64,
    /// Measured switch-column change rate of the 5% energy workload
    /// (a structure-preserving aligned compile: the paper's regime).
    energy_change_rate: f64,
    energy_switches: u64,
    energy_bits_flipped: u64,
    /// Proxy pJ under SWITCH_ENERGY_PJ_PER_BIT — relative, not silicon.
    energy_pj: f64,
    energy_mean_bits_per_switch: f64,
    report: RunReport,
}

/// One context's top-of-the-census LUT ranking.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ActivityRank {
    context: usize,
    top_luts: Vec<usize>,
}

/// One context's congestion summary.
#[derive(Serialize, Deserialize)]
struct CongestionPoint {
    context: usize,
    edges_used: usize,
    peak_utilization: f64,
    hottest_edge: usize,
}

/// The probe experiment's `BENCH_baseline.json` section.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    max_divergences: u64,
    disabled_overhead_floor: f64,
    activity_top: Vec<ActivityRank>,
}

impl Report for ProbeBench {
    const FILE: &'static str = "BENCH_probe.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        // The non-negotiable invariant: armed probes record exactly what the
        // kernel computed, on every lane.
        let (got, max) = (self.probe_divergences, base.max_divergences);
        let bound = format!("== 0 and == baseline max_divergences {max}");
        c.ensure(got == 0 && got == max, "probe_divergences", got, &bound);
        check!(c.eq(self.lanes, 64));
        check!(c.positive(self): probe_words_checked probe_disabled_vectors_per_sec
            plain_batched_vectors_per_sec probe_armed_vectors_per_sec vcd_bytes
            census_toggles_total mixed_switches mixed_energy_pj energy_switches);
        // Disarmed probes stay effectively free.
        check!(c.ge(self.disabled_to_plain_median, base.disabled_overhead_floor));
        // The seeded census counts toggles in integer bit arithmetic, so its
        // ranking reproduces exactly; every context is ranked and mapped.
        let top = |r: &[ActivityRank]| labels(r, |r| format!("{:?}", r.top_luts)).join(" ");
        let (got, want) = (top(&self.activity_top), top(&base.activity_top));
        c.eq("activity_top", got, want);
        c.eq("activity_top.len()", self.activity_top.len(), 4);
        for r in &self.activity_top {
            c.at(format_args!("activity_top[context={}].", r.context));
            c.eq("top_luts.len()", r.top_luts.len(), 8);
        }
        c.at("");
        c.eq("congestion.len()", self.congestion.len(), 4);
        for p in &self.congestion {
            c.at(format_args!("congestion[context={}].", p.context));
            check!(c.positive(p.edges_used));
            let u = p.peak_utilization;
            c.ensure(u > 0.0 && u <= 1.0, "peak_utilization", u, "in (0, 1]");
        }
        // At the paper's 5% point structure-preserving contexts route
        // identically, so switching them flips no configuration bits.
        c.at("");
        check!(c.eq(self.energy_bits_flipped, 0));
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures, run_report};

    /// Exact probes, free when disarmed, and the baseline's census ranking.
    pub(crate) fn passing() -> (ProbeBench, Baseline) {
        let congestion = (0..4)
            .map(|context| CongestionPoint {
                context,
                edges_used: 10,
                peak_utilization: 0.5,
                hottest_edge: 1,
            })
            .collect();
        let report = ProbeBench {
            experiment: "probe".into(),
            words: 512,
            lanes: 64,
            vectors: 32_768,
            repeats: 16,
            disabled_us: 1,
            probe_disabled_vectors_per_sec: 1e8,
            plain_us: 1,
            plain_batched_vectors_per_sec: 1e8,
            disabled_to_plain_median: 1.0,
            armed_us: 1,
            probe_armed_vectors_per_sec: 9e7,
            armed_overhead: 0.1,
            probe_words_checked: 512,
            probe_divergences: 0,
            vcd_bytes: 100,
            activity_top: baseline::<Baseline>("probe").activity_top,
            toggle_rates: vec![0.1; 4],
            census_toggles_total: 1_000,
            congestion,
            mixed_switches: 100,
            mixed_bits_flipped: 1_000,
            mixed_energy_pj: 10.0,
            energy_change_rate: 0.0,
            energy_switches: 64,
            energy_bits_flipped: 0,
            energy_pj: 0.0,
            energy_mean_bits_per_switch: 0.0,
            report: run_report(&[], &[], &[]),
        };
        (report, baseline("probe"))
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("probe_divergences", |r, _| r.probe_divergences = 1),
                ("probe_divergences", |_, b| b.max_divergences = 1),
                ("lanes", |r, _| r.lanes = 32),
                ("probe_words_checked", |r, _| r.probe_words_checked = 0),
                ("vcd_bytes", |r, _| r.vcd_bytes = 0),
                ("mixed_energy_pj", |r, _| r.mixed_energy_pj = 0.0),
                ("energy_switches", |r, _| r.energy_switches = 0),
                ("disabled_to_plain_median", |r, _| {
                    r.disabled_to_plain_median = 0.94
                }),
                ("activity_top", |r, _| r.activity_top[1].top_luts.swap(0, 1)),
                ("activity_top.len()", |r, b| {
                    r.activity_top.pop();
                    b.activity_top.pop();
                }),
                ("activity_top[context=2].top_luts.len()", |r, b| {
                    r.activity_top[2].top_luts.pop();
                    b.activity_top[2].top_luts.pop();
                }),
                ("congestion.len()", |r, _| {
                    r.congestion.pop();
                }),
                ("congestion[context=1].edges_used", |r, _| {
                    r.congestion[1].edges_used = 0
                }),
                ("congestion[context=1].peak_utilization", |r, _| {
                    r.congestion[1].peak_utilization = 1.5
                }),
                ("congestion[context=3].peak_utilization", |r, _| {
                    r.congestion[3].peak_utilization = 0.0
                }),
                ("energy_bits_flipped", |r, _| r.energy_bits_flipped = 3),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "activity_top");
    }
}
