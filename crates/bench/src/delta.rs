//! `experiments delta` and its report, `BENCH_delta.json`.

use crate::gate::{self, check, labels, Checks, Report, Violation};
use crate::header;
use mcfpga::netlist::{perturb_netlist, random_netlist, RandomNetlistParams};
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// Delta compilation: a changed request served against a cached near-match
/// base recompiles only the changed contexts, and the result is proven
/// bit-identical to a cold compile at every change rate
/// (`BENCH_delta.json`). This is the serving-layer analogue of the paper's
/// 5% inter-context change assumption: when little configuration data
/// changes, little compile work should be paid.
pub fn run() {
    use mcfpga_serve::{CompileJob, CompiledDesign, ServeConfig, Server};

    header("delta: near-match cache + per-context incremental recompilation");
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);

    // A 4-context workload of independent random sequential netlists — big
    // enough that skipped contexts represent real compile work.
    let params = RandomNetlistParams {
        n_inputs: 8,
        n_gates: 72,
        n_outputs: 8,
        dff_fraction: 0.25,
    };
    let n_contexts = 4usize;
    let base: Vec<Netlist> = (0..n_contexts)
        .map(|c| random_netlist(params, 0xD17A + c as u64))
        .collect();

    let t = std::time::Instant::now();
    let base_design = CompiledDesign::compile(&arch, &base, &opts).expect("base compiles");
    let base_compile_us = t.elapsed().as_micros() as u64;
    println!(
        "base workload: {n_contexts} contexts x {} gates, cold compile {:.1} ms",
        params.n_gates,
        base_compile_us as f64 / 1e3
    );

    // Perturb exactly one context at three change regimes: a single
    // substituted LUT, the paper's 5% change assumption, and a heavy 50%
    // rewrite. `perturb_netlist` is probabilistic per gate, so seeds are
    // searched until the requested amount of change actually materializes.
    let changed_ctx = 2usize;
    let gates_total = base[changed_ctx].n_gates();
    let diff = |a: &Netlist, b: &Netlist| {
        a.gates()
            .iter()
            .zip(b.gates())
            .filter(|(x, y)| x != y)
            .count()
    };
    let perturbed_with = |frac: f64, seed: u64, want: &dyn Fn(usize) -> bool| {
        (seed..)
            .find_map(|s| {
                let p = perturb_netlist(&base[changed_ctx], frac, s);
                want(diff(&base[changed_ctx], &p)).then_some(p)
            })
            .expect("some seed yields the requested change")
    };
    let cases: [(&str, f64, Netlist); 3] = [
        (
            "1lut",
            1.0 / gates_total as f64,
            perturbed_with(1.0 / gates_total as f64, 1, &|d| d == 1),
        ),
        ("5pct", 0.05, perturbed_with(0.05, 11, &|d| d > 0)),
        ("50pct", 0.5, perturbed_with(0.5, 23, &|d| d > 0)),
    ];

    // Bit-identity is checked in-experiment, not just in tests: any
    // divergence between the delta artifact and a cold compile of the same
    // request invalidates every timing below.
    let bit_identical = |a: &CompiledDesign, b: &CompiledDesign| {
        a.n_contexts() == b.n_contexts()
            && (0..a.n_contexts()).all(|c| {
                a.kernel(c) == b.kernel(c) && a.initial_registers(c) == b.initial_registers(c)
            })
            && a.fingerprint() == b.fingerprint()
    };

    let reps = 3usize;
    let mut points = Vec::new();
    let mut divergences = 0u64;
    let mut speedup_at_5pct = 0.0f64;
    for (label, change_rate, variant_ctx) in &cases {
        let mut variant = base.clone();
        variant[changed_ctx] = variant_ctx.clone();
        let gates_changed = diff(&base[changed_ctx], variant_ctx);

        let mut cold_us = u64::MAX;
        let mut delta_us = u64::MAX;
        let mut cold_design = None;
        let mut delta_outcome = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let cold = CompiledDesign::compile(&arch, &variant, &opts).expect("cold compiles");
            cold_us = cold_us.min(t.elapsed().as_micros() as u64);
            cold_design = Some(cold);

            let t = std::time::Instant::now();
            let out = CompiledDesign::delta_compile_with(
                &arch,
                &variant,
                &opts,
                &Recorder::disabled(),
                &base_design,
                None,
            )
            .expect("delta compiles");
            delta_us = delta_us.min(t.elapsed().as_micros() as u64);
            delta_outcome = Some(out);
        }
        let cold = cold_design.expect("reps > 0");
        let (delta_design, stats) = delta_outcome.expect("reps > 0");
        if !bit_identical(&delta_design, &cold) {
            divergences += 1;
        }

        let speedup = cold_us as f64 / delta_us.max(1) as f64;
        if *label == "5pct" {
            speedup_at_5pct = speedup;
        }
        println!(
            "{label:>5} ({gates_changed:>2}/{gates_total} gates): cold {:>8.1} ms, \
             delta {:>7.1} ms ({speedup:.1}x), {}/{} contexts reused \
             ({} placements, {} routes)",
            cold_us as f64 / 1e3,
            delta_us as f64 / 1e3,
            stats.contexts_reused,
            stats.contexts_total,
            stats.placements_reused,
            stats.routes_reused,
        );
        points.push(DeltaPoint {
            label: (*label).into(),
            change_rate: *change_rate,
            gates_changed,
            gates_total,
            cold_us,
            delta_us,
            speedup,
            contexts_total: stats.contexts_total,
            contexts_reused: stats.contexts_reused,
            placements_reused: stats.placements_reused,
            routes_reused: stats.routes_reused,
        });
    }
    assert_eq!(
        divergences, 0,
        "delta-compiled artifacts diverged from cold compiles"
    );

    // The same regimes through a live server: the base populates the cache,
    // each variant must come back as a near hit on the delta path.
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(8),
        &rec,
    );
    server
        .submit_compile(CompileJob::new(arch.clone(), base.clone()).with_options(opts))
        .expect("accepted")
        .wait()
        .expect("base compiles");
    let mut serve_near_hits = 0usize;
    for (_, _, variant_ctx) in &cases {
        let mut variant = base.clone();
        variant[changed_ctx] = variant_ctx.clone();
        let outcome = server
            .submit_compile(CompileJob::new(arch.clone(), variant).with_options(opts))
            .expect("accepted")
            .wait()
            .expect("variant compiles");
        if outcome.delta.is_some() {
            serve_near_hits += 1;
        }
    }
    let serve_report = server.report();
    println!(
        "served: {serve_near_hits}/{} variants took the delta path \
         ({} contexts reused across them)",
        cases.len(),
        serve_report.delta_contexts_reused
    );
    assert_eq!(
        serve_near_hits,
        cases.len(),
        "every variant must near-hit the cached base"
    );

    let bench = DeltaBench {
        experiment: "delta".into(),
        n_contexts,
        gates_per_context: params.n_gates,
        base_compile_us,
        points,
        divergences,
        speedup_at_5pct,
        serve_near_hits,
        serve_report,
    };
    gate::write(&bench);
}

/// One change-rate point of the delta-compilation benchmark.
#[derive(Serialize, Deserialize)]
struct DeltaPoint {
    label: String,
    /// Requested per-gate substitution probability.
    change_rate: f64,
    /// Gates that actually differ between base and variant context.
    gates_changed: usize,
    gates_total: usize,
    /// Cold compile of the full variant workload (min over reps).
    cold_us: u64,
    /// Delta compile against the cached base (min over reps).
    delta_us: u64,
    /// `cold_us / delta_us` — gated ≥ 3.0 at the 5% point.
    speedup: f64,
    contexts_total: usize,
    /// Contexts whose netlist hash matched the base, reused verbatim.
    contexts_reused: usize,
    /// Changed contexts whose placement survived the equality gate.
    placements_reused: usize,
    /// Changed contexts whose routing survived the equality gate.
    routes_reused: usize,
}

/// Machine-readable record of the delta-compilation benchmark
/// (`BENCH_delta.json`).
#[derive(Serialize, Deserialize)]
pub(crate) struct DeltaBench {
    experiment: String,
    n_contexts: usize,
    gates_per_context: usize,
    base_compile_us: u64,
    points: Vec<DeltaPoint>,
    /// Delta artifacts differing bit-for-bit from cold compiles (gated 0).
    divergences: u64,
    /// Convenience copy of the 5% point's speedup (gated ≥ 3.0).
    speedup_at_5pct: f64,
    /// Variants answered through the near-match delta path (must equal the
    /// number of change regimes).
    serve_near_hits: usize,
    serve_report: mcfpga_serve::ServeReport,
}

/// The delta experiment's `BENCH_baseline.json` section.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    max_divergences: u64,
    speedup_floor_5pct: f64,
}

impl Report for DeltaBench {
    const FILE: &'static str = "BENCH_delta.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        // The non-negotiable invariant: delta artifacts are bit-identical to
        // cold compiles.
        let (got, max) = (self.divergences, base.max_divergences);
        let bound = format!("== 0 and == baseline max_divergences {max}");
        c.ensure(got == 0 && got == max, "divergences", got, &bound);
        let have = labels(&self.points, |p| p.label.clone());
        let want = ["1lut", "5pct", "50pct"].map(String::from);
        c.same_set("points", &have, &want);
        for p in &self.points {
            c.at(format_args!("points[{}].", p.label));
            check!(c.ge(p.gates_changed, 1));
            check!(c.positive(p): cold_us delta_us);
            // One perturbed context: every other context is reused verbatim.
            let others = p.contexts_total as i128 - 1;
            c.eq("contexts_reused", p.contexts_reused as i128, others);
        }
        c.at("");
        check!(c.ge(self.speedup_at_5pct, base.speedup_floor_5pct));
        // Every variant took the near-match delta path when served.
        let n = self.points.len();
        check!(c.eq(self.serve_near_hits, n));
        let sr = &self.serve_report;
        c.at("serve_report.");
        check!(c.eq(sr.cache_near_hits, n as u64));
        check!(c.ge(sr.delta_contexts_reused, 2 * n as u64));
        check!(c.eq(sr.jobs_completed, sr.jobs_submitted));
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures};
    use mcfpga_serve::ServeReport;

    fn point(label: &str) -> DeltaPoint {
        DeltaPoint {
            label: label.into(),
            change_rate: 0.05,
            gates_changed: 3,
            gates_total: 72,
            cold_us: 40_000,
            delta_us: 4_000,
            speedup: 10.0,
            contexts_total: 4,
            contexts_reused: 3,
            placements_reused: 0,
            routes_reused: 0,
        }
    }

    /// Three bit-identical single-context deltas, all served as near hits.
    pub(crate) fn passing() -> (DeltaBench, Baseline) {
        let serve_report = ServeReport {
            jobs_submitted: 4,
            jobs_completed: 4,
            cache_near_hits: 3,
            delta_contexts_reused: 9,
            ..ServeReport::default()
        };
        let report = DeltaBench {
            experiment: "delta".into(),
            n_contexts: 4,
            gates_per_context: 72,
            base_compile_us: 40_000,
            points: vec![point("1lut"), point("5pct"), point("50pct")],
            divergences: 0,
            speedup_at_5pct: 10.0,
            serve_near_hits: 3,
            serve_report,
        };
        (report, baseline("delta"))
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("divergences", |r, _| r.divergences = 1),
                ("divergences", |_, b| b.max_divergences = 1),
                ("points[50pct]", |r, _| {
                    r.points.pop();
                    r.serve_near_hits = 2;
                    r.serve_report.cache_near_hits = 2;
                }),
                ("points[5pct].gates_changed", |r, _| {
                    r.points[1].gates_changed = 0
                }),
                ("points[1lut].cold_us", |r, _| r.points[0].cold_us = 0),
                ("points[1lut].delta_us", |r, _| r.points[0].delta_us = 0),
                ("points[5pct].contexts_reused", |r, _| {
                    r.points[1].contexts_reused = 2
                }),
                ("points[5pct].contexts_reused", |r, _| {
                    r.points[1].contexts_total = 0
                }),
                ("speedup_at_5pct", |r, b| {
                    r.speedup_at_5pct = b.speedup_floor_5pct - 0.1
                }),
                ("serve_near_hits", |r, _| r.serve_near_hits = 2),
                ("serve_report.cache_near_hits", |r, _| {
                    r.serve_report.cache_near_hits = 2
                }),
                ("serve_report.delta_contexts_reused", |r, _| {
                    r.serve_report.delta_contexts_reused = 5
                }),
                ("serve_report.jobs_completed", |r, _| {
                    r.serve_report.jobs_completed = 3
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "points");
    }
}
