//! `experiments serve` and its report, `BENCH_serve.json`.

use crate::gate::{self, check, labels, Checks, Report, Violation};
use crate::{header, mixed_contexts};
use mcfpga::obs::HistogramEntry;
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// The multi-tenant serving benchmark: compile-job throughput vs worker
/// count, cache behaviour under repeat submission, and concurrent sim
/// serving verified against private replays (`BENCH_serve.json`).
pub fn run() {
    use mcfpga_serve::{CompileJob, ServeConfig, Server, SimJob};

    header("serve: multi-tenant job serving over the flow + batched kernel");
    let arch = ArchSpec::paper_default();
    // Compile inside jobs stays serial: the serve worker pool is the
    // parallelism under measurement, and nesting the per-context fan-out
    // under it would oversubscribe the machine.
    let opts = CompileOptions::default().with_parallel(false);
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 12 content-distinct compile jobs: 4 rotations of the mixed 4-context
    // suite, 4 adjacent pairs, and the 4 singles.
    let base = mixed_contexts();
    let mut job_sets: Vec<Vec<Netlist>> = Vec::new();
    for r in 0..4 {
        let mut rot = base.clone();
        rot.rotate_left(r);
        job_sets.push(rot);
    }
    for i in 0..4 {
        job_sets.push(vec![base[i].clone(), base[(i + 1) % 4].clone()]);
    }
    for c in &base {
        job_sets.push(vec![c.clone()]);
    }
    let jobs = job_sets.len();

    // Phase 1: open-loop cold-cache throughput at 1 and 4 workers. Every
    // job is submitted up front; the pool drains the queue.
    let submit_all = |server: &Server| -> Vec<_> {
        job_sets
            .iter()
            .map(|set| {
                server
                    .submit_compile(CompileJob::new(arch.clone(), set.clone()).with_options(opts))
                    .expect("queue sized for the full job set")
            })
            .collect()
    };
    let mut cold_elapsed_us = [0u64; 2];
    let mut scaling_server = None;
    for (slot, workers) in [(0usize, 1usize), (1, 4)] {
        let rec = Recorder::enabled();
        let server = Server::with_recorder(
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(2 * jobs),
            &rec,
        );
        let start = std::time::Instant::now();
        let mut hits = 0usize;
        for handle in submit_all(&server) {
            if handle.wait().expect("cold job completes").cache_hit {
                hits += 1;
            }
        }
        cold_elapsed_us[slot] = start.elapsed().as_micros() as u64;
        assert_eq!(hits, 0, "cold cache cannot hit");
        if workers == 4 {
            scaling_server = Some(server);
        }
    }
    let throughput = |us: u64| jobs as f64 / (us as f64 / 1e6);
    let throughput_jobs_per_sec_1w = throughput(cold_elapsed_us[0]);
    let throughput_jobs_per_sec_4w = throughput(cold_elapsed_us[1]);
    let scaling_1_to_4 = throughput_jobs_per_sec_4w / throughput_jobs_per_sec_1w;
    println!(
        "cold compile throughput over {jobs} distinct jobs \
         (available parallelism {available_parallelism}):"
    );
    println!("  1 worker:  {throughput_jobs_per_sec_1w:>8.2} jobs/s");
    println!("  4 workers: {throughput_jobs_per_sec_4w:>8.2} jobs/s  ({scaling_1_to_4:.2}x)");

    // Phase 2: resubmit the identical job set to the warm 4-worker server —
    // every job must come out of the content-addressed cache.
    let warm = scaling_server.expect("4-worker server kept");
    let start = std::time::Instant::now();
    let handles = submit_all(&warm);
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.wait().expect("repeat job completes"))
        .collect();
    let repeat_elapsed_us = start.elapsed().as_micros() as u64;
    let repeat_hits = outcomes.iter().filter(|o| o.cache_hit).count();
    let repeat_cache_hit_rate = repeat_hits as f64 / jobs as f64;
    println!(
        "repeat submission: {repeat_hits}/{jobs} cache hits \
         ({:.1} ms vs {:.1} ms cold)",
        repeat_elapsed_us as f64 / 1e3,
        cold_elapsed_us[1] as f64 / 1e3,
    );
    let scaling_report = warm.report();
    drop(warm);

    // Phase 3: concurrent sim serving. 4 tenants share one compiled design
    // through 4 private sessions, each driving every context with its own
    // word stream; outputs are checked against a private (server-free)
    // replay of the same script.
    let sim_rec = Recorder::enabled();
    let sim_server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
        &sim_rec,
    );
    let sim_sessions = 4usize;
    let cycles_per_job = 16usize;
    let jobs_per_tenant = 8usize;
    let compiled: Vec<_> = (0..sim_sessions)
        .map(|_| {
            sim_server
                .submit_compile(CompileJob::new(arch.clone(), base.clone()).with_options(opts))
                .expect("accepted")
                .wait()
                .expect("compiles")
        })
        .collect();

    let tenant_words = |tenant: usize, job: usize, cycle: usize, input: usize| -> u64 {
        let x = (tenant as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job as u64) << 40)
            .wrapping_add((cycle as u64) << 16)
            .wrapping_add(input as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 31)
    };
    let served: Vec<Vec<Vec<Vec<u64>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = compiled
            .iter()
            .enumerate()
            .map(|(tenant, outcome)| {
                let server = &sim_server;
                scope.spawn(move || {
                    (0..jobs_per_tenant)
                        .map(|job| {
                            let context = job % outcome.design.n_contexts();
                            let n_in = outcome.design.kernel(context).n_inputs();
                            let words = (0..cycles_per_job)
                                .map(|cycle| {
                                    (0..n_in)
                                        .map(|i| tenant_words(tenant, job, cycle, i))
                                        .collect()
                                })
                                .collect();
                            server
                                .submit_sim(SimJob::new(outcome.session, context, words))
                                .expect("accepted")
                                .wait()
                                .expect("sim job completes")
                                .outputs
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    // Private replay per tenant: a fresh MultiDevice driven with the same
    // script must match the served outputs word for word.
    let mut cross_session_divergences = 0u64;
    for (tenant, outputs) in served.iter().enumerate() {
        let mut device = MultiDevice::compile_opts(&arch, &base, &opts, &Recorder::disabled())
            .expect("reference compile");
        for (job, job_outputs) in outputs.iter().enumerate() {
            let context = job % device.n_contexts();
            device.try_switch_context(context).expect("context");
            let n_in = device.kernel(context).expect("context").n_inputs();
            for (cycle, out_words) in job_outputs.iter().enumerate() {
                let words: Vec<u64> = (0..n_in)
                    .map(|i| tenant_words(tenant, job, cycle, i))
                    .collect();
                let expected = device.try_step_batch(&words).expect("reference step");
                if &expected != out_words {
                    cross_session_divergences += 1;
                }
            }
        }
    }
    let sim_jobs = sim_sessions * jobs_per_tenant;
    let sim_report = sim_server.report();
    println!(
        "sim serving: {sim_sessions} tenants x {jobs_per_tenant} jobs x \
         {cycles_per_job} words, {cross_session_divergences} divergences vs private replay"
    );
    assert_eq!(
        cross_session_divergences, 0,
        "sessions leaked register state across tenants"
    );

    let pct = |h: &Option<mcfpga::obs::HistogramEntry>, p50: bool| {
        h.as_ref().map_or(0.0, |h| if p50 { h.p50 } else { h.p99 })
    };
    println!(
        "latency (sim-serving server): wait p50 {:.0} us p99 {:.0} us, \
         service p50 {:.0} us p99 {:.0} us",
        pct(&sim_report.wait_us, true),
        pct(&sim_report.wait_us, false),
        pct(&sim_report.service_us, true),
        pct(&sim_report.service_us, false),
    );

    let bench = ServeBench {
        experiment: "serve".into(),
        available_parallelism,
        jobs,
        cold_elapsed_us_1w: cold_elapsed_us[0],
        cold_elapsed_us_4w: cold_elapsed_us[1],
        throughput_jobs_per_sec_1w,
        throughput_jobs_per_sec_4w,
        scaling_1_to_4,
        repeat_elapsed_us,
        repeat_cache_hit_rate,
        sim_sessions,
        sim_jobs,
        cross_session_divergences,
        wait_p50_us: pct(&sim_report.wait_us, true),
        wait_p99_us: pct(&sim_report.wait_us, false),
        service_p50_us: pct(&sim_report.service_us, true),
        service_p99_us: pct(&sim_report.service_us, false),
        scaling_report,
        sim_report,
        report: sim_rec.report("serve"),
    };
    gate::write(&bench);
}

/// Machine-readable record of the serving benchmark (`BENCH_serve.json`).
#[derive(Serialize, Deserialize)]
pub(crate) struct ServeBench {
    experiment: String,
    /// Worker scaling is only meaningful when the host actually has cores;
    /// the regression gate skips the scaling floor below 4.
    available_parallelism: usize,
    /// Content-distinct compile jobs in the cold/repeat phases.
    jobs: usize,
    cold_elapsed_us_1w: u64,
    cold_elapsed_us_4w: u64,
    throughput_jobs_per_sec_1w: f64,
    throughput_jobs_per_sec_4w: f64,
    scaling_1_to_4: f64,
    repeat_elapsed_us: u64,
    /// Fraction of the repeat-phase jobs answered from cache (gated at 1.0).
    repeat_cache_hit_rate: f64,
    sim_sessions: usize,
    sim_jobs: usize,
    /// Served outputs differing from each tenant's private replay (gated at 0).
    cross_session_divergences: u64,
    wait_p50_us: f64,
    wait_p99_us: f64,
    service_p50_us: f64,
    service_p99_us: f64,
    /// Serve metrics of the scaling/repeat server (phases 1-2).
    scaling_report: mcfpga_serve::ServeReport,
    /// Serve metrics of the concurrent sim-serving server (phase 3).
    sim_report: mcfpga_serve::ServeReport,
    /// Full span/metric report of the sim-serving recorder.
    report: RunReport,
}

/// The serve experiment's `BENCH_baseline.json` section.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    throughput_jobs_per_sec_4w: f64,
}

/// 1->4 worker throughput scaling floor, enforced only on runners with at
/// least [`SERVE_SCALING_MIN_CORES`] cores: a 1-core container cannot scale
/// no matter how good the code is.
pub(crate) const SERVE_SCALING_FLOOR: f64 = 2.0;
pub(crate) const SERVE_SCALING_MIN_CORES: usize = 4;

impl Report for ServeBench {
    const FILE: &'static str = "BENCH_serve.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        check!(c.positive(self): available_parallelism jobs throughput_jobs_per_sec_1w
            sim_sessions sim_jobs);
        check!(c.no_collapse(self, base): throughput_jobs_per_sec_4w);
        if self.available_parallelism >= SERVE_SCALING_MIN_CORES {
            check!(c.ge(self.scaling_1_to_4, SERVE_SCALING_FLOOR));
        } else {
            check!(c.positive(self.scaling_1_to_4));
        }
        // The repeat phase resubmits byte-identical content, sessions match
        // their private replays, and no accepted job went missing.
        check!(c.eq(self.repeat_cache_hit_rate, 1.0));
        check!(c.eq(self.cross_session_divergences, 0));
        check!(c.eq(self.scaling_report.cache_hits, self.jobs as u64));
        for (name, r) in [
            ("scaling_report", &self.scaling_report),
            ("sim_report", &self.sim_report),
        ] {
            c.at(format_args!("{name}."));
            check!(c.eq(r.jobs_completed, r.jobs_submitted));
            check!(c.eq(r.jobs_rejected, 0));
            check!(c.eq(r.jobs_expired, 0));
        }
        let count = |h: &Option<HistogramEntry>| h.as_ref().map_or(0, |h| h.count);
        c.at("sim_report.");
        c.positive("wait_us.count", count(&self.sim_report.wait_us));
        c.positive("service_us.count", count(&self.sim_report.service_us));
        c.at("");
        let spans = labels(&self.report.spans, |s| s.name.clone());
        c.includes("report.spans", &spans, &["compile_job", "sim_job"]);
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures, run_report};
    use mcfpga_serve::ServeReport;

    /// Both servers drained; every repeat job hit the cache.
    pub(crate) fn passing() -> (ServeBench, Baseline) {
        let base: Baseline = baseline("serve");
        let mut scaling_report = ServeReport::from_recorder(&Recorder::disabled());
        scaling_report.jobs_submitted = 24;
        scaling_report.jobs_completed = 24;
        scaling_report.cache_hits = 12;
        let mut sim_report = ServeReport::from_recorder(&Recorder::disabled());
        sim_report.jobs_submitted = 36;
        sim_report.jobs_completed = 36;
        let rec = Recorder::enabled();
        rec.observe("latency", 10.0);
        let hist = rec.histogram("latency");
        (sim_report.wait_us, sim_report.service_us) = (hist.clone(), hist);
        let report = ServeBench {
            experiment: "serve".into(),
            available_parallelism: 2,
            jobs: 12,
            cold_elapsed_us_1w: 1,
            cold_elapsed_us_4w: 1,
            throughput_jobs_per_sec_1w: 100.0,
            throughput_jobs_per_sec_4w: base.throughput_jobs_per_sec_4w,
            scaling_1_to_4: 1.0,
            repeat_elapsed_us: 1,
            repeat_cache_hit_rate: 1.0,
            sim_sessions: 4,
            sim_jobs: 32,
            cross_session_divergences: 0,
            wait_p50_us: 1.0,
            wait_p99_us: 1.0,
            service_p50_us: 1.0,
            service_p99_us: 1.0,
            scaling_report,
            sim_report,
            report: run_report(&["compile_job", "sim_job"], &[], &[]),
        };
        (report, base)
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("available_parallelism", |r, _| r.available_parallelism = 0),
                ("jobs", |r, _| {
                    r.jobs = 0;
                    r.scaling_report.cache_hits = 0;
                }),
                ("throughput_jobs_per_sec_1w", |r, _| {
                    r.throughput_jobs_per_sec_1w = 0.0
                }),
                ("sim_sessions", |r, _| r.sim_sessions = 0),
                ("sim_jobs", |r, _| r.sim_jobs = 0),
                ("throughput_jobs_per_sec_4w", |r, b| {
                    r.throughput_jobs_per_sec_4w = b.throughput_jobs_per_sec_4w / 21.0
                }),
                ("scaling_1_to_4", |r, _| r.scaling_1_to_4 = 0.0),
                ("scaling_1_to_4", |r, _| {
                    r.available_parallelism = 4;
                    r.scaling_1_to_4 = 1.9;
                }),
                ("repeat_cache_hit_rate", |r, _| {
                    r.repeat_cache_hit_rate = 0.99
                }),
                ("cross_session_divergences", |r, _| {
                    r.cross_session_divergences = 1
                }),
                ("scaling_report.cache_hits", |r, _| {
                    r.scaling_report.cache_hits = 11
                }),
                ("sim_report.jobs_completed", |r, _| {
                    r.sim_report.jobs_completed -= 1
                }),
                ("scaling_report.jobs_rejected", |r, _| {
                    r.scaling_report.jobs_rejected = 1
                }),
                ("sim_report.jobs_expired", |r, _| {
                    r.sim_report.jobs_expired = 1
                }),
                ("sim_report.wait_us.count", |r, _| {
                    r.sim_report.wait_us = None
                }),
                ("sim_report.service_us.count", |r, _| {
                    r.sim_report.service_us.as_mut().unwrap().count = 0
                }),
                ("report.spans[sim_job]", |r, _| {
                    r.report.spans.pop();
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "scaling_report");
    }
}
