//! `experiments serve_obs` and its report, `BENCH_serve_obs.json`.

use crate::gate::{self, check, Checks, Report, Violation};
use crate::{header, mixed_contexts};
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// The serve-observability benchmark: 4 tenants (one a deliberate
/// aggressor) drive a small worker pool into sustained overload behind a
/// per-tenant in-flight cap, proving that (a) every shed is attributable in
/// both the tenant ledger and the trace ring, (b) each tenant's ledger is
/// exactly conserved, and (c) the aggressor's flood does not starve the
/// victims (`BENCH_serve_obs.json`).
pub fn run() {
    use mcfpga::obs::job_trace;
    use mcfpga_serve::{CompileJob, ServeConfig, Server, SimJob, SubmitError, WatermarkAdmission};
    use std::sync::Arc;

    header("serve_obs: per-tenant accounting, correlation, admission control");
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);
    let circuits = mixed_contexts();

    let workers = 2usize;
    let queue_capacity = 32usize;
    let queue_watermark = 24usize;
    // A closed-loop victim submits with none of its jobs in flight (the
    // ledger finishes a job before its handle resolves), so a cap of one
    // never sheds it, while the aggressor's back-to-back burst is over the
    // cap whenever a job arrives with an earlier one still queued or being
    // served. An aggressor job runs long enough to outlast several of
    // those submissions.
    let tenant_inflight_cap = 1u64;
    let rounds = 12usize;
    let aggressor_burst = 8usize;
    let victim_cycles = 64usize;
    let aggressor_cycles = 2048usize;
    let victims = ["tenant-a", "tenant-b", "tenant-c"];
    let aggressor = "aggressor";

    // Ring sized to hold every event of the run: attribution is only
    // provable when no shed event was evicted (trace_dropped must be 0).
    let rec = Recorder::enabled_with_capacity(1 << 16);
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(workers)
            .with_queue_capacity(queue_capacity)
            .with_admission(Arc::new(
                WatermarkAdmission::default()
                    .with_queue_watermark(queue_watermark)
                    .with_tenant_inflight_cap(tenant_inflight_cap),
            )),
        &rec,
    );

    // One session per tenant over the same design: the first compile is the
    // cache miss, the rest hit and share the artifact.
    let mut sessions = std::collections::BTreeMap::new();
    for (i, tenant) in victims.iter().chain([&aggressor]).enumerate() {
        let outcome = server
            .submit_compile(
                CompileJob::new(arch.clone(), circuits.clone())
                    .with_options(opts)
                    .with_tenant(*tenant),
            )
            .expect("compile accepted")
            .wait()
            .expect("compile completes");
        assert_eq!(outcome.cache_hit, i > 0, "only the first compile misses");
        sessions.insert(tenant.to_string(), outcome);
    }

    let words_for = |tenant_ix: usize, round: usize, n_in: usize, cycles: usize| -> Vec<Vec<u64>> {
        (0..cycles)
            .map(|cycle| {
                (0..n_in)
                    .map(|i| {
                        let x = (tenant_ix as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((round as u64) << 32)
                            .wrapping_add((cycle as u64) << 8)
                            .wrapping_add(i as u64)
                            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        x ^ (x >> 31)
                    })
                    .collect()
            })
            .collect()
    };

    // Victims submit one job at a time and wait for it (closed loop); the
    // aggressor fires open-loop bursts above its cap and only then drains.
    // One victim job id is kept for the correlation proof below.
    let mut traced_job = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (vix, tenant) in victims.iter().enumerate() {
            let server = &server;
            let outcome = &sessions[*tenant];
            let words_for = &words_for;
            handles.push(scope.spawn(move || {
                let mut last_job = 0u64;
                for round in 0..rounds {
                    let context = round % outcome.design.n_contexts();
                    let n_in = outcome.design.kernel(context).n_inputs();
                    let handle = server
                        .submit_sim(
                            SimJob::new(
                                outcome.session,
                                context,
                                words_for(vix, round, n_in, victim_cycles),
                            )
                            .with_tenant(*tenant),
                        )
                        .expect("victim in-flight stays below every admission bound");
                    last_job = handle.job().raw();
                    handle.wait().expect("victim job completes");
                }
                last_job
            }));
        }
        let aggressor_handle = {
            let server = &server;
            let outcome = &sessions[aggressor];
            let words_for = &words_for;
            scope.spawn(move || {
                let mut sheds = 0u64;
                let mut rejected = 0u64;
                for round in 0..rounds {
                    // Build the whole burst before submitting any of it, so
                    // the jobs land back to back: a worker serves one faster
                    // than its stimulus is built.
                    let jobs: Vec<SimJob> = (0..aggressor_burst)
                        .map(|b| {
                            let context = (round + b) % outcome.design.n_contexts();
                            let n_in = outcome.design.kernel(context).n_inputs();
                            let words = words_for(100 + b, round, n_in, aggressor_cycles);
                            SimJob::new(outcome.session, context, words).with_tenant(aggressor)
                        })
                        .collect();
                    let mut burst = Vec::new();
                    for job in jobs {
                        match server.submit_sim(job) {
                            Ok(h) => burst.push(h),
                            Err(SubmitError::Shed { .. }) => sheds += 1,
                            Err(_) => rejected += 1,
                        }
                    }
                    for h in burst {
                        h.wait().expect("accepted aggressor job completes");
                    }
                }
                (sheds, rejected)
            })
        };
        let mut last_victim_jobs = Vec::new();
        for h in handles {
            last_victim_jobs.push(h.join().expect("victim thread"));
        }
        traced_job = last_victim_jobs.first().copied();
        let (client_sheds, client_rejected) = aggressor_handle.join().expect("aggressor thread");
        println!(
            "aggressor client saw {client_sheds} sheds, {client_rejected} hard rejections \
             over {rounds} bursts of {aggressor_burst}"
        );
    });

    // Every handle has been waited: the server is drained, so each tenant's
    // ledger must balance with zero in flight.
    let report = server.report();
    let snapshot = server.snapshot();
    let events = rec.trace_events();
    assert_eq!(rec.trace_dropped(), 0, "ring sized for the full run");

    // Attribution: every shed counted anywhere must be reconstructable from
    // the trace ring with a job id and tenant label attached.
    let mut traced_sheds: std::collections::BTreeMap<String, u64> = Default::default();
    let mut untagged_shed_events = 0u64;
    for e in events.iter().filter(|e| e.name == "job_shed") {
        match (&e.job, &e.tenant) {
            (Some(_), Some(t)) => *traced_sheds.entry(t.clone()).or_insert(0) += 1,
            _ => untagged_shed_events += 1,
        }
    }
    let mut unattributed_sheds = untagged_shed_events;
    let mut all_conserved = true;
    let mut tenant_rows = Vec::new();
    let mut victim_submitted = 0u64;
    let mut victim_completed = 0u64;
    for row in &report.tenants {
        let traced = traced_sheds.get(&row.tenant).copied().unwrap_or(0);
        unattributed_sheds += row.stats.shed.abs_diff(traced);
        let conserved = row.stats.is_conserved() && row.stats.inflight == 0;
        all_conserved &= conserved;
        if victims.contains(&row.tenant.as_str()) {
            victim_submitted += row.stats.submitted;
            victim_completed += row.stats.completed;
        }
        let pct = |h: &Option<mcfpga::obs::HistogramEntry>, p50: bool| {
            h.as_ref().map_or(0.0, |h| if p50 { h.p50 } else { h.p99 })
        };
        println!(
            "{:<10} submitted {:>3} completed {:>3} shed {:>3} (traced {:>3}) \
             wait p99 {:>8.0} us conserved {}",
            row.tenant,
            row.stats.submitted,
            row.stats.completed,
            row.stats.shed,
            traced,
            pct(&row.wait_us, false),
            conserved,
        );
        tenant_rows.push(ServeObsTenant {
            tenant: row.tenant.clone(),
            stats: row.stats.clone(),
            traced_sheds: traced,
            conserved,
            cache_hit_rate: row.stats.cache_hit_rate(),
            wait_p50_us: pct(&row.wait_us, true),
            wait_p99_us: pct(&row.wait_us, false),
            service_p50_us: pct(&row.service_us, true),
            service_p99_us: pct(&row.service_us, false),
        });
    }
    let aggressor_isolation_ratio = if victim_submitted == 0 {
        0.0
    } else {
        victim_completed as f64 / victim_submitted as f64
    };
    assert!(all_conserved, "per-tenant conservation violated");
    assert_eq!(unattributed_sheds, 0, "every shed must be attributable");
    assert!(report.jobs_shed >= 1, "the aggressor must get shed");

    // Correlation proof: rebuild one victim job's span tree from the shared
    // ring and check the full request path is present.
    let traced_job = traced_job.expect("a victim job ran");
    let trace = job_trace(&events, traced_job).expect("victim job left correlated events");
    let correlation = ServeObsCorrelation {
        job: traced_job,
        tenant: trace.tenant.clone().unwrap_or_default(),
        n_events: trace.n_events,
        has_submit: trace.instant("job_submitted").is_some(),
        has_dequeue: trace.instant("job_dequeued").is_some(),
        has_sim_span: trace.span("sim_job").is_some(),
        has_sim_batch: trace.instant("sim_batch").is_some(),
    };
    assert!(
        correlation.has_submit && correlation.has_dequeue && correlation.has_sim_span,
        "correlated request path incomplete: {correlation:?}"
    );
    println!(
        "correlated job {traced_job} ({}): {} events, submit/dequeue/span/batch all present",
        correlation.tenant, correlation.n_events
    );
    println!(
        "sheds {} (watermark {} inflight-cap {}), isolation ratio {:.3}, \
         queue hwm {}, trace events {} (0 dropped)",
        report.jobs_shed,
        report.shed_queue_watermark,
        report.shed_tenant_inflight,
        aggressor_isolation_ratio,
        report.queue_depth_hwm,
        events.len(),
    );

    let bench = ServeObsBench {
        experiment: "serve_obs".into(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers,
        queue_capacity,
        queue_watermark,
        tenant_inflight_cap,
        rounds,
        aggressor_burst,
        victim_cycles,
        aggressor_cycles,
        tenants: tenant_rows,
        shed_total: report.jobs_shed,
        shed_queue_watermark: report.shed_queue_watermark,
        shed_tenant_inflight: report.shed_tenant_inflight,
        shed_policy: report.shed_policy,
        unattributed_sheds,
        all_conserved,
        aggressor_isolation_ratio,
        queue_depth_hwm: report.queue_depth_hwm,
        trace_events: events.len(),
        trace_dropped: report.trace_dropped,
        correlation,
        snapshot,
        serve_report: report,
    };
    gate::write(&bench);
}

/// One tenant row of `BENCH_serve_obs.json`.
#[derive(Debug, Serialize, Deserialize)]
struct ServeObsTenant {
    tenant: String,
    stats: mcfpga_serve::TenantStats,
    /// `job_shed` trace events attributed to this tenant (gated equal to
    /// `stats.shed`).
    traced_sheds: u64,
    /// `submitted == completed + failed + expired + rejected + shed` with
    /// zero in flight after drain (gated true).
    conserved: bool,
    cache_hit_rate: f64,
    wait_p50_us: f64,
    wait_p99_us: f64,
    service_p50_us: f64,
    service_p99_us: f64,
}

/// The correlation proof embedded in `BENCH_serve_obs.json`: one victim
/// job's request path reconstructed from the shared trace ring.
#[derive(Debug, Serialize, Deserialize)]
struct ServeObsCorrelation {
    job: u64,
    tenant: String,
    n_events: usize,
    has_submit: bool,
    has_dequeue: bool,
    has_sim_span: bool,
    has_sim_batch: bool,
}

/// Machine-readable record of the observability benchmark
/// (`BENCH_serve_obs.json`).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct ServeObsBench {
    experiment: String,
    available_parallelism: usize,
    workers: usize,
    queue_capacity: usize,
    queue_watermark: usize,
    tenant_inflight_cap: u64,
    rounds: usize,
    aggressor_burst: usize,
    victim_cycles: usize,
    aggressor_cycles: usize,
    tenants: Vec<ServeObsTenant>,
    shed_total: u64,
    shed_queue_watermark: u64,
    shed_tenant_inflight: u64,
    shed_policy: u64,
    /// Sheds not reconstructable from the trace ring with job + tenant
    /// attribution (gated at 0).
    unattributed_sheds: u64,
    /// Every tenant ledger balanced with zero in flight (gated true).
    all_conserved: bool,
    /// Victim jobs completed / victim jobs submitted (gated ≥ 0.9): the
    /// aggressor's overload must not starve well-behaved tenants.
    aggressor_isolation_ratio: f64,
    queue_depth_hwm: u64,
    trace_events: usize,
    trace_dropped: u64,
    correlation: ServeObsCorrelation,
    snapshot: mcfpga_serve::HealthSnapshot,
    serve_report: mcfpga_serve::ServeReport,
}

/// The serve_obs experiment's `BENCH_baseline.json` section: its SLOs.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    isolation_floor: f64,
    min_shed: u64,
}

impl Report for ServeObsBench {
    const FILE: &'static str = "BENCH_serve_obs.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        // The aggressor may not starve the victims, and the run must
        // overload: one with no sheds proves nothing about admission.
        check!(c.ge(self.aggressor_isolation_ratio, base.isolation_floor));
        check!(c.ge(self.shed_total, base.min_shed.max(1)));
        // Every shed is typed and attributed, the ring kept every event, and
        // every tenant ledger conserves.
        let typed = [
            self.shed_queue_watermark,
            self.shed_tenant_inflight,
            self.shed_policy,
        ];
        let typed: u128 = typed.map(u128::from).iter().sum();
        c.eq("shed_total", u128::from(self.shed_total), typed);
        check!(c.eq(self.unattributed_sheds, 0));
        check!(c.eq(self.trace_dropped, 0));
        check!(c.eq(self.all_conserved, true));
        for t in &self.tenants {
            let s = &t.stats;
            let outcomes = [
                s.completed,
                s.failed,
                s.expired,
                s.rejected,
                s.shed,
                s.inflight,
            ];
            c.at(format_args!("tenants[{}].", t.tenant));
            let accounted = outcomes.map(u128::from).iter().sum();
            c.eq("stats.submitted", u128::from(s.submitted), accounted);
            check!(c.positive(t): wait_p50_us wait_p99_us service_p50_us service_p99_us);
        }
        // One request's full span tree is reconstructable from the ring, and
        // the live snapshot saw the drained server after a full queue.
        c.at("correlation.");
        check!(c.positive(self.correlation): has_submit has_dequeue has_sim_span has_sim_batch);
        c.at("");
        check!(c.eq(self.snapshot.queue_depth, 0));
        check!(c.eq(self.snapshot.inflight, 0));
        check!(c.ge(self.snapshot.queue_depth_hwm, 1));
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures};
    use mcfpga_serve::{HealthSnapshot, ServeReport, TenantStats};

    fn tenant(name: &str) -> ServeObsTenant {
        ServeObsTenant {
            tenant: name.into(),
            stats: TenantStats {
                submitted: 12,
                completed: 10,
                shed: 2,
                ..TenantStats::default()
            },
            traced_sheds: 2,
            conserved: true,
            cache_hit_rate: 0.0,
            wait_p50_us: 1.0,
            wait_p99_us: 2.0,
            service_p50_us: 1.0,
            service_p99_us: 2.0,
        }
    }

    /// A drained server that shed the aggressor and kept every ledger.
    pub(crate) fn passing() -> (ServeObsBench, Baseline) {
        let report = ServeObsBench {
            experiment: "serve_obs".into(),
            available_parallelism: 2,
            workers: 2,
            queue_capacity: 32,
            queue_watermark: 24,
            tenant_inflight_cap: 4,
            rounds: 12,
            aggressor_burst: 8,
            victim_cycles: 64,
            aggressor_cycles: 256,
            tenants: vec![tenant("aggressor"), tenant("tenant-a")],
            shed_total: 4,
            shed_queue_watermark: 1,
            shed_tenant_inflight: 3,
            shed_policy: 0,
            unattributed_sheds: 0,
            all_conserved: true,
            aggressor_isolation_ratio: 1.0,
            queue_depth_hwm: 3,
            trace_events: 100,
            trace_dropped: 0,
            correlation: ServeObsCorrelation {
                job: 1,
                tenant: "tenant-a".into(),
                n_events: 4,
                has_submit: true,
                has_dequeue: true,
                has_sim_span: true,
                has_sim_batch: true,
            },
            snapshot: HealthSnapshot {
                queue_depth: 0,
                queue_capacity: 32,
                queue_depth_hwm: 3,
                inflight: 0,
                workers: 2,
                busy_workers: 0,
                worker_utilization: 0.0,
                sessions: 4,
                cached_designs: 1,
                rolling_wait_p99_us: 1.0,
                rolling_service_p99_us: 1.0,
                jobs_shed: 4,
                jobs_rejected: 0,
                trace_dropped: 0,
                tenant_inflight: Vec::new(),
            },
            serve_report: ServeReport::from_recorder(&Recorder::disabled()),
        };
        (report, baseline("serve_obs"))
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("aggressor_isolation_ratio", |r, _| {
                    r.aggressor_isolation_ratio = 0.89
                }),
                ("shed_total", |r, b| b.min_shed = r.shed_total + 1),
                ("shed_total", |r, _| {
                    r.shed_total = 0;
                    r.shed_queue_watermark = 0;
                    r.shed_tenant_inflight = 0;
                }),
                ("shed_total", |r, _| r.shed_policy = 1),
                ("unattributed_sheds", |r, _| r.unattributed_sheds = 1),
                ("trace_dropped", |r, _| r.trace_dropped = 1),
                ("all_conserved", |r, _| r.all_conserved = false),
                ("tenants[tenant-a].stats.submitted", |r, _| {
                    r.tenants[1].stats.submitted += 1
                }),
                ("tenants[aggressor].wait_p99_us", |r, _| {
                    r.tenants[0].wait_p99_us = 0.0
                }),
                ("correlation.has_submit", |r, _| {
                    r.correlation.has_submit = false
                }),
                ("correlation.has_sim_batch", |r, _| {
                    r.correlation.has_sim_batch = false
                }),
                ("snapshot.queue_depth", |r, _| r.snapshot.queue_depth = 1),
                ("snapshot.inflight", |r, _| r.snapshot.inflight = 1),
                ("snapshot.queue_depth_hwm", |r, _| {
                    r.snapshot.queue_depth_hwm = 0
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "correlation");
    }
}
