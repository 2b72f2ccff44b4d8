//! `experiments sim` and its report, `BENCH_sim.json`.

use crate::gate::{self, check, labels, Checks, Report, Violation};
use crate::{header, mixed_contexts, mixed_schedule, scalar_replay};
use mcfpga::netlist::{workload, RandomNetlistParams};
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// Bit-parallel compiled simulation: 64 vectors per word through the fabric
/// model, measured against the scalar interpreter (`BENCH_sim.json`).
pub fn run() {
    use mcfpga::sim::{lut_fault_campaign, KernelScratch, LANES, SUPPORTED_WIDTHS};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    header("sim: bit-parallel compiled kernel (64 vectors per word)");
    let arch = ArchSpec::paper_default();
    let circuits = mixed_contexts();
    let rec = Recorder::enabled();
    let mut dev = MultiDevice::compile_with(&arch, &circuits, &rec).expect("compile");
    let n_ctx = circuits.len();
    let arity: Vec<usize> = circuits.iter().map(|c| c.inputs().len()).collect();

    // One deterministic schedule drives both paths: context switches at
    // word boundaries, 64 independent random vectors per word.
    let schedule = mixed_schedule(&circuits);
    let words = schedule.len();

    // The timed passes below measure the scalar path and the kernel, not
    // the recorder: lower every kernel while it is attached (the report
    // keeps their `sim_kernel_build` spans), then detach it until the
    // passes are done.
    for c in 0..n_ctx {
        dev.kernel(c).expect("context exists");
    }
    dev.attach_recorder(&Recorder::disabled());

    // Scalar pass: every lane of every word, one vector per interpreted
    // step, packed back into words so the batched pass can be checked
    // bit-for-bit against them.
    let scalar_start = std::time::Instant::now();
    let scalar_words = scalar_replay(&mut dev, &schedule);
    let scalar_us = scalar_start.elapsed().as_micros().max(1) as u64;

    // Batched passes over the same words. The first pass is cross-checked
    // against the packed scalar outputs; the repeats amortise timer
    // resolution (a single kernel pass is clock noise).
    let repeats = 16usize;
    dev.reset();
    let batched_start = std::time::Instant::now();
    for rep in 0..repeats {
        for (word, (c, inputs)) in schedule.iter().enumerate() {
            dev.switch_context(*c);
            let out = dev.step_batch(inputs);
            if rep == 0 {
                assert_eq!(
                    out, scalar_words[word],
                    "batched output diverged from packed scalar lanes at word {word}"
                );
            }
        }
    }
    let batched_us = batched_start.elapsed().as_micros().max(1) as u64;
    dev.attach_recorder(&rec);

    let vectors = (words * LANES) as u64;
    let scalar_vectors_per_sec = vectors as f64 / (scalar_us as f64 / 1e6);
    let batched_vectors_per_sec = (vectors * repeats as u64) as f64 / (batched_us as f64 / 1e6);
    let batched_words_per_sec = batched_vectors_per_sec / LANES as f64;
    let speedup = batched_vectors_per_sec / scalar_vectors_per_sec;
    rec.set_gauge("sim.scalar_vectors_per_sec", scalar_vectors_per_sec);
    rec.set_gauge("sim.batched_vectors_per_sec", batched_vectors_per_sec);
    rec.set_gauge("sim.batch_speedup", speedup);

    println!("mixed 4-context workload, {words} words x {LANES} lanes = {vectors} vectors:");
    println!(
        "  scalar:  {:>10.3} ms  {:>14.0} vectors/s  ({:.0} cycles/s)",
        scalar_us as f64 / 1e3,
        scalar_vectors_per_sec,
        scalar_vectors_per_sec,
    );
    println!(
        "  batched: {:>10.3} ms  {:>14.0} vectors/s  ({:.0} words/s, {repeats} passes)",
        batched_us as f64 / 1e3 / repeats as f64,
        batched_vectors_per_sec,
        batched_words_per_sec,
    );
    println!("  speedup: {speedup:.1}x  (first batched pass verified against scalar lanes)");

    // Throughput matrix: the streaming runner swept over chunk width and
    // thread count, on the device's optimized kernels. Every cell is
    // verified word-for-word against a width-1 serial reference stepped on
    // the device's unoptimized lowering; the reference itself is checked
    // against the (scalar-verified) batched step path on every chunk and
    // against true scalar replays on the leading chunks, all 64 lanes.
    let n_total = 2048usize; // narrow chunks per context; divisible by 8
    let mut mrng = StdRng::seed_from_u64(4021);
    let narrow: Vec<Vec<u64>> = (0..n_ctx)
        .map(|c| (0..n_total * arity[c]).map(|_| mrng.next_u64()).collect())
        .collect();
    let plain = dev.compiled_kernels();
    let (mut scratch, mut out) = (KernelScratch::new(), Vec::new());
    let refs: Vec<Vec<u64>> = (0..n_ctx)
        .map(|c| {
            let mut words = Vec::new();
            for inputs in narrow[c].chunks(arity[c]) {
                plain[c].step(inputs, &mut [], &mut scratch, &mut out);
                words.extend_from_slice(&out);
            }
            words
        })
        .collect();
    let n_outs: Vec<usize> = refs.iter().map(|r| r.len() / n_total).collect();
    let mut reference_divergences = 0usize;
    for c in 0..n_ctx {
        dev.switch_context(c);
        for t in 0..n_total {
            let out = dev.step_batch(&narrow[c][t * arity[c]..][..arity[c]]);
            for (o, &w) in out.iter().enumerate() {
                if refs[c][t * n_outs[c] + o] != w {
                    reference_divergences += 1;
                }
            }
        }
        for t in 0..16 {
            for lane in 0..LANES {
                let bits: Vec<bool> = (0..arity[c])
                    .map(|i| (narrow[c][t * arity[c] + i] >> lane) & 1 == 1)
                    .collect();
                let out = dev.step(&bits);
                for (o, &b) in out.iter().enumerate() {
                    if ((refs[c][t * n_outs[c] + o] >> lane) & 1 == 1) != b {
                        reference_divergences += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        reference_divergences, 0,
        "width-1 reference diverged from the scalar/batched paths"
    );

    println!("\nthroughput matrix ({n_total} chunks/context, every cell verified, 0 = exact):");
    println!(
        "  {:>5} {:>7} {:>10} {:>16} {:>11}",
        "width", "threads", "wall ms", "vectors/s", "divergences"
    );
    let m_repeats = 4usize;
    let mut matrix: Vec<SimMatrixCell> = Vec::new();
    for &width in SUPPORTED_WIDTHS {
        // Interleave: narrow chunk `t*width + w` becomes word `w` of
        // wide chunk `t` — with a combinational suite every chunk word
        // is an independent stream, so this re-chunking is exact.
        let wide: Vec<Vec<u64>> = (0..n_ctx)
            .map(|c| {
                let ni = arity[c];
                let mut v = vec![0u64; n_total * ni];
                for t in 0..n_total / width {
                    for i in 0..ni {
                        for w in 0..width {
                            v[(t * ni + i) * width + w] = narrow[c][(t * width + w) * ni + i];
                        }
                    }
                }
                v
            })
            .collect();
        for threads in [1usize, 2] {
            // Verification pass, untimed; also warms the kernel cache.
            let mut divergences = 0usize;
            for c in 0..n_ctx {
                let out = dev.run_throughput(c, &wide[c], width, threads);
                for t in 0..n_total / width {
                    for o in 0..n_outs[c] {
                        for w in 0..width {
                            if out[(t * n_outs[c] + o) * width + w]
                                != refs[c][(t * width + w) * n_outs[c] + o]
                            {
                                divergences += 1;
                            }
                        }
                    }
                }
            }
            let start = std::time::Instant::now();
            for _ in 0..m_repeats {
                for (c, wide_c) in wide.iter().enumerate() {
                    let _ = dev.run_throughput(c, wide_c, width, threads);
                }
            }
            let wall_us = start.elapsed().as_micros().max(1) as u64;
            let cell_vectors = (n_total * LANES * n_ctx * m_repeats) as u64;
            let vectors_per_sec = cell_vectors as f64 / (wall_us as f64 / 1e6);
            println!(
                "  {:>5} {:>7} {:>10.3} {:>16.0} {:>11}",
                width,
                threads,
                wall_us as f64 / 1e3,
                vectors_per_sec,
                divergences
            );
            matrix.push(SimMatrixCell {
                width,
                threads,
                chunks_per_context: n_total,
                repeats: m_repeats,
                wall_us,
                vectors: cell_vectors,
                vectors_per_sec,
                divergences,
            });
        }
    }
    let matrix_best_vectors_per_sec = matrix
        .iter()
        .map(|c| c.vectors_per_sec)
        .fold(0.0f64, f64::max);
    rec.set_gauge(
        "sim.matrix_best_vectors_per_sec",
        matrix_best_vectors_per_sec,
    );
    println!(
        "  best: {:.0} vectors/s ({:.1}x the step-batch path)",
        matrix_best_vectors_per_sec,
        matrix_best_vectors_per_sec / batched_vectors_per_sec
    );

    // Per-context optimizer effect, run on the unoptimized lowering.
    let optimizer: Vec<SimOptimizerCell> = (0..n_ctx)
        .map(|c| {
            let (_, s) = plain[c].optimize_with_stats();
            SimOptimizerCell {
                context: c,
                instrs_before: s.instrs_before,
                instrs_after: s.instrs_after,
                word_ops_before: s.word_ops_before,
                word_ops_after: s.word_ops_after,
                folded_operands: s.folded_operands,
                deduped: s.deduped,
                dead: s.dead,
                specialized: s.specialized,
            }
        })
        .collect();
    println!("\nkernel optimizer (per context):");
    for s in &optimizer {
        println!(
            "  ctx {}: instrs {} -> {}, word-ops {} -> {} ({} folded operands, \
             {} deduped, {} dead, {} specialized)",
            s.context,
            s.instrs_before,
            s.instrs_after,
            s.word_ops_before,
            s.word_ops_after,
            s.folded_operands,
            s.deduped,
            s.dead,
            s.specialized
        );
    }

    // Fault-campaign wall time: the `faults` experiment's exact campaign,
    // now running on per-fault kernel clones fanned across the worker pool.
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
    let mut fault_dev = MultiDevice::compile_aligned(&arch, &w).expect("compile");
    fault_dev.attach_recorder(&rec);
    let campaign_start = std::time::Instant::now();
    let campaign = lut_fault_campaign(&mut fault_dev, &w, 60, 150, 42);
    let fault_campaign_ms = campaign_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nfault campaign: {} upsets x {} words ({} vectors each) in {:.1} ms, \
         {:.0}% detected",
        campaign.injected,
        150,
        150 * LANES,
        fault_campaign_ms,
        100.0 * campaign.detection_rate()
    );

    let bench = SimBench {
        experiment: "sim".into(),
        words,
        lanes: LANES,
        vectors,
        batched_repeats: repeats,
        scalar_us,
        batched_us,
        scalar_vectors_per_sec,
        batched_vectors_per_sec,
        batched_words_per_sec,
        speedup,
        matrix,
        matrix_best_vectors_per_sec,
        reference_divergences,
        optimizer,
        fault_campaign_ms,
        fault_injected: campaign.injected,
        fault_detected: campaign.detected,
        fault_silent: campaign.silent,
        fault_detection_rate: campaign.detection_rate(),
        report: rec.report("sim"),
    };
    gate::write(&bench);
}

/// Machine-readable record of the batched-simulation benchmark
/// (`BENCH_sim.json`): scalar vs 64-lane kernel throughput on the mixed
/// 4-context workload, plus the kernel-based fault-campaign wall time.
#[derive(Serialize, Deserialize)]
pub(crate) struct SimBench {
    experiment: String,
    /// Word-steps in the shared schedule; each word carries `lanes` vectors.
    words: usize,
    lanes: usize,
    vectors: u64,
    /// Timed batched passes over the schedule (the first is verified
    /// bit-for-bit against the scalar outputs).
    batched_repeats: usize,
    scalar_us: u64,
    batched_us: u64,
    /// Scalar steps are one vector per cycle, so this is also cycles/sec.
    scalar_vectors_per_sec: f64,
    batched_vectors_per_sec: f64,
    /// Kernel word-steps per second (vectors/sec divided by the lane count).
    batched_words_per_sec: f64,
    speedup: f64,
    /// Streaming-runner cells: chunk width x threads, each verified
    /// word-for-word against the width-1 unoptimized reference.
    matrix: Vec<SimMatrixCell>,
    matrix_best_vectors_per_sec: f64,
    /// Mismatches of the width-1 reference against the batched step path
    /// (every chunk) and true scalar replays (leading chunks); gated to 0.
    reference_divergences: usize,
    /// Per-context optimizer effect on the compiled instruction streams.
    optimizer: Vec<SimOptimizerCell>,
    fault_campaign_ms: f64,
    fault_injected: usize,
    fault_detected: usize,
    fault_silent: usize,
    fault_detection_rate: f64,
    report: RunReport,
}

/// One throughput-matrix cell of `BENCH_sim.json`: the streaming runner
/// over the mixed suite at a fixed (width, threads) setting.
#[derive(Serialize, Deserialize)]
struct SimMatrixCell {
    /// Chunk width in words: 64·width stimulus lanes per step.
    width: usize,
    threads: usize,
    /// Width-1 chunk count per context; a width-W cell runs `.. / W` chunks
    /// over the same re-chunked streams, so vectors are constant per cell.
    chunks_per_context: usize,
    repeats: usize,
    wall_us: u64,
    vectors: u64,
    vectors_per_sec: f64,
    /// Output words differing from the width-1 unoptimized reference
    /// (checked before timing); gated to 0.
    divergences: usize,
}

/// Per-context kernel-optimizer statistics in `BENCH_sim.json`: exact
/// instruction and word-op counts before/after, by pass.
#[derive(Serialize, Deserialize)]
struct SimOptimizerCell {
    context: usize,
    instrs_before: usize,
    instrs_after: usize,
    word_ops_before: usize,
    word_ops_after: usize,
    folded_operands: usize,
    deduped: usize,
    dead: usize,
    specialized: usize,
}

/// The sim experiment's `BENCH_baseline.json` section.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    scalar_vectors_per_sec: f64,
    batched_vectors_per_sec: f64,
    fault_campaign_ms: f64,
    fault_injected: usize,
    fault_detected: usize,
    matrix_best_vectors_per_sec: f64,
    matrix: Vec<BaselineCell>,
    optimizer: Vec<SimOptimizerCell>,
}

/// A baseline matrix cell's coordinates.
#[derive(Deserialize)]
struct BaselineCell {
    width: usize,
    threads: usize,
}

/// The 64-lane kernel must beat the scalar interpreter by at least this much
/// on any runner; anything lower means the batched path stopped paying off.
pub(crate) const SIM_SPEEDUP_FLOOR: f64 = 8.0;
/// The best wide-word streaming cell must beat the same run's step-batch
/// throughput by at least this factor. A same-run ratio, so runner speed
/// cancels out.
pub(crate) const SIM_MATRIX_FLOOR: f64 = 3.0;

fn cell(width: usize, threads: usize) -> String {
    format!("width={width},threads={threads}")
}

impl Report for SimBench {
    const FILE: &'static str = "BENCH_sim.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        check!(c.positive(self): words fault_campaign_ms fault_detection_rate);
        check!(c.eq(self.lanes, 64));
        check!(c.ge(self.speedup, SIM_SPEEDUP_FLOOR));
        check!(c.no_collapse(self, base): scalar_vectors_per_sec batched_vectors_per_sec
            matrix_best_vectors_per_sec);
        let (ms, base_ms) = (self.fault_campaign_ms, base.fault_campaign_ms);
        let bound = format!("<= {}x baseline {base_ms}", gate::TIME_BLOWUP);
        let ok = base_ms < 1.0 || ms <= gate::TIME_BLOWUP * base_ms;
        c.ensure(ok, "fault_campaign_ms", ms, &bound);
        // The campaign is seeded and evaluated in integer bit arithmetic.
        check!(c.eq(self, base): fault_injected fault_detected);
        let floor = SIM_MATRIX_FLOOR * self.batched_vectors_per_sec;
        check!(c.ge(self.matrix_best_vectors_per_sec, floor));
        check!(c.eq(self.reference_divergences, 0));
        // Exactly the 8 (width, threads) cells, the baseline's among them,
        // each bit-identical to the reference.
        let expected: Vec<String> = [1, 2, 4, 8]
            .into_iter()
            .flat_map(|width| [1, 2].map(|threads| cell(width, threads)))
            .collect();
        let have = labels(&self.matrix, |m| cell(m.width, m.threads));
        c.same_set("matrix", &have, &expected);
        let cells = labels(&base.matrix, |b| cell(b.width, b.threads));
        c.includes("matrix", &expected, &cells);
        for (m, key) in self.matrix.iter().zip(&have) {
            c.at(format_args!("matrix[{key}]."));
            check!(c.eq(m.divergences, 0));
            check!(c.positive(m.vectors_per_sec));
        }
        // The optimizer's effect is a deterministic function of the seeded
        // compile: exact counts, no instruction growth, fewer word-ops.
        c.at("");
        let have = labels(&self.optimizer, |o| o.context.to_string());
        let want = labels(&base.optimizer, |o| o.context.to_string());
        c.same_set("optimizer", &have, &want);
        for o in &self.optimizer {
            c.at(format_args!("optimizer[context={}].", o.context));
            if let Some(b) = base.optimizer.iter().find(|b| b.context == o.context) {
                check!(c.eq(o, b): instrs_before instrs_after word_ops_before word_ops_after
                    folded_operands deduped dead specialized);
            }
            check!(c.le(o.instrs_after, o.instrs_before));
            check!(c.lt(o.word_ops_after, o.word_ops_before));
        }
        c.at("report.");
        let r = &self.report;
        let gauges =
            ["scalar", "batched", "matrix_best"].map(|g| format!("sim.{g}_vectors_per_sec"));
        c.includes("gauges", &labels(&r.gauges, |g| g.name.clone()), &gauges);
        for name in ["sim.cycles", "sim.words", "sim.throughput_words"] {
            c.positive(&format!("counters[{name}]"), r.counter(name));
        }
        let spans = labels(&r.spans, |s| s.name.clone());
        c.includes("spans", &spans, &["sim_kernel_build"]);
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures, run_report};

    fn cell_of(width: usize, threads: usize) -> SimMatrixCell {
        let (chunks_per_context, repeats, wall_us, vectors) = (2048, 4, 1, 1);
        let (vectors_per_sec, divergences) = (1e8, 0);
        SimMatrixCell {
            width,
            threads,
            chunks_per_context,
            repeats,
            wall_us,
            vectors,
            vectors_per_sec,
            divergences,
        }
    }

    /// A report reproducing the baseline exactly, every cell verified.
    pub(crate) fn passing() -> (SimBench, Baseline) {
        let base: Baseline = baseline("sim");
        let matrix = [1, 2, 4, 8]
            .into_iter()
            .flat_map(|width| [1, 2].map(|threads| cell_of(width, threads)))
            .collect();
        let report = SimBench {
            experiment: "sim".into(),
            words: 512,
            lanes: 64,
            vectors: 32_768,
            batched_repeats: 16,
            scalar_us: 1,
            batched_us: 1,
            scalar_vectors_per_sec: base.scalar_vectors_per_sec,
            batched_vectors_per_sec: base.batched_vectors_per_sec,
            batched_words_per_sec: 1.0,
            speedup: base.batched_vectors_per_sec / base.scalar_vectors_per_sec,
            matrix,
            matrix_best_vectors_per_sec: base.matrix_best_vectors_per_sec,
            reference_divergences: 0,
            optimizer: baseline::<Baseline>("sim").optimizer,
            fault_campaign_ms: base.fault_campaign_ms,
            fault_injected: base.fault_injected,
            fault_detected: base.fault_detected,
            fault_silent: 43,
            fault_detection_rate: 17.0 / 60.0,
            report: run_report(
                &["sim_kernel_build"],
                &["sim.cycles", "sim.words", "sim.throughput_words"],
                &[
                    "sim.scalar_vectors_per_sec",
                    "sim.batched_vectors_per_sec",
                    "sim.matrix_best_vectors_per_sec",
                ],
            ),
        };
        (report, base)
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("words", |r, _| r.words = 0),
                ("fault_campaign_ms", |r, _| r.fault_campaign_ms = 0.0),
                ("fault_detection_rate", |r, _| r.fault_detection_rate = 0.0),
                ("lanes", |r, _| r.lanes = 32),
                ("speedup", |r, _| r.speedup = 7.9),
                ("scalar_vectors_per_sec", |r, b| {
                    r.scalar_vectors_per_sec = b.scalar_vectors_per_sec / 21.0
                }),
                ("batched_vectors_per_sec", |r, b| {
                    r.batched_vectors_per_sec = b.batched_vectors_per_sec / 21.0
                }),
                ("matrix_best_vectors_per_sec", |_, b| {
                    b.matrix_best_vectors_per_sec *= 21.0
                }),
                ("matrix_best_vectors_per_sec", |r, _| {
                    r.matrix_best_vectors_per_sec = 2.0 * r.batched_vectors_per_sec
                }),
                ("fault_campaign_ms", |r, b| {
                    r.fault_campaign_ms = 21.0 * b.fault_campaign_ms
                }),
                ("fault_injected", |r, _| r.fault_injected += 1),
                ("fault_detected", |r, _| r.fault_detected -= 1),
                ("reference_divergences", |r, _| r.reference_divergences = 1),
                ("matrix[width=4,threads=2]", |r, _| {
                    r.matrix.remove(5);
                }),
                ("matrix[width=16,threads=2]", |_, b| b.matrix[7].width = 16),
                ("matrix[width=16,threads=1]", |r, _| {
                    r.matrix.push(cell_of(16, 1))
                }),
                ("matrix[width=4,threads=2].divergences", |r, _| {
                    r.matrix[5].divergences = 1
                }),
                ("matrix[width=1,threads=1].vectors_per_sec", |r, _| {
                    r.matrix[0].vectors_per_sec = 0.0
                }),
                ("optimizer[3]", |r, _| {
                    r.optimizer.pop();
                }),
                ("optimizer[context=1].dead", |r, _| r.optimizer[1].dead = 5),
                ("optimizer[context=2].instrs_after", |r, b| {
                    r.optimizer[2].instrs_after = 33;
                    b.optimizer[2].instrs_after = 33;
                }),
                ("optimizer[context=2].word_ops_after", |r, b| {
                    r.optimizer[2].word_ops_after = 216;
                    b.optimizer[2].word_ops_after = 216;
                }),
                ("report.gauges[sim.batched_vectors_per_sec]", |r, _| {
                    r.report.gauges.remove(1);
                }),
                ("report.counters[sim.words]", |r, _| {
                    r.report.counters.remove(1);
                }),
                ("report.spans[sim_kernel_build]", |r, _| {
                    r.report.spans.clear()
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "speedup");
    }
}
