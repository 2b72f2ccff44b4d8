//! Integration tests of the serving observability surface: per-tenant
//! accounting conservation under concurrent load, typed admission sheds
//! with trace attribution, live health snapshots, and request-scoped
//! correlation through the compile pipeline.

use std::time::Duration;

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::{library, Netlist};
use mcfpga_obs::{job_trace, JobSpan, Recorder, TracePhase};
use mcfpga_serve::{
    CompileJob, RestoreJob, ServeConfig, ServeError, Server, SessionId, ShedReason, SimJob,
    SubmitError, DEFAULT_TENANT, SNAPSHOT_VERSION,
};
use mcfpga_sim::CompileOptions;

fn arch() -> ArchSpec {
    ArchSpec::paper_default()
}

/// Serial compile inside jobs: the serve worker pool is the parallelism.
fn serial() -> CompileOptions {
    CompileOptions::default().with_parallel(false)
}

fn cheap_circuits() -> Vec<Netlist> {
    vec![library::adder(2)]
}

/// What one tenant's client thread observed — the ground truth its
/// server-side ledger must match exactly.
#[derive(Debug, Default, PartialEq, Eq)]
struct ClientTally {
    submitted: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    rejected: u64,
}

#[test]
fn tenant_ledgers_exactly_match_client_observed_outcomes_under_concurrency() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(256),
        &rec,
    );
    let tenants = ["alpha", "beta", "gamma", "delta"];
    // One session per tenant, submitted up front (these compile jobs are
    // part of each tenant's ledger too).
    let sessions: Vec<SessionId> = tenants
        .iter()
        .map(|t| {
            server
                .submit_compile(
                    CompileJob::new(arch(), cheap_circuits())
                        .with_options(serial())
                        .with_tenant(*t),
                )
                .expect("accepted")
                .wait()
                .expect("compiles")
                .session
        })
        .collect();

    // A session that no longer exists: open one more and close it. The
    // setup tenant's ledger is not asserted on below.
    let closed = server
        .submit_compile(
            CompileJob::new(arch(), cheap_circuits())
                .with_options(serial())
                .with_tenant("setup"),
        )
        .expect("accepted")
        .wait()
        .expect("compiles")
        .session;
    assert!(server.close_session(closed));

    let n_in = 5; // adder(2): 2 + 2 inputs + carry
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(ix, tenant)| {
                let server = &server;
                let session = sessions[ix];
                scope.spawn(move || {
                    // The compile above was this tenant's first attempt.
                    let mut tally = ClientTally {
                        submitted: 1,
                        completed: 1,
                        ..ClientTally::default()
                    };
                    for round in 0..30usize {
                        let job = match round % 3 {
                            // Valid sim job: completes.
                            0 => SimJob::new(session, 0, vec![vec![round as u64; n_in]; 8]),
                            // Closed session: serviced to a typed failure.
                            1 => SimJob::new(closed, 0, vec![vec![0; n_in]]),
                            // Zero deadline: expires in queue, never runs.
                            _ => SimJob::new(session, 0, vec![vec![1; n_in]])
                                .with_deadline(Duration::ZERO),
                        };
                        tally.submitted += 1;
                        match server.submit_sim(job.with_tenant(*tenant)) {
                            Ok(handle) => match handle.wait() {
                                Ok(_) => tally.completed += 1,
                                Err(ServeError::Deadline { .. }) => tally.expired += 1,
                                Err(_) => tally.failed += 1,
                            },
                            Err(_) => tally.rejected += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (ix, tenant) in tenants.iter().enumerate() {
        let stats = server.tenant_stats(tenant).expect("tenant ledger exists");
        let tally = &tallies[ix];
        assert!(stats.is_conserved(), "{tenant}: {stats:?}");
        assert_eq!(stats.inflight, 0, "{tenant}: drained server");
        assert_eq!(stats.submitted, tally.submitted, "{tenant}");
        assert_eq!(stats.completed, tally.completed, "{tenant}");
        assert_eq!(stats.failed, tally.failed, "{tenant}");
        assert_eq!(stats.expired, tally.expired, "{tenant}");
        assert_eq!(stats.rejected, tally.rejected, "{tenant}");
        assert_eq!(stats.shed, 0, "{tenant}: default policy never sheds");
        assert_eq!(stats.compile_jobs, 1, "{tenant}");
        assert_eq!(stats.sim_jobs, stats.submitted - 1, "{tenant}");
    }
    // The global report is the sum of the per-tenant ledgers.
    let report = server.report();
    let sum = |f: fn(&mcfpga_serve::TenantStats) -> u64| -> u64 {
        report.tenants.iter().map(|t| f(&t.stats)).sum()
    };
    assert_eq!(report.jobs_completed, sum(|s| s.completed));
    assert_eq!(report.jobs_failed, sum(|s| s.failed));
    assert_eq!(report.jobs_expired, sum(|s| s.expired));
    assert_eq!(report.jobs_shed, sum(|s| s.shed));
}

#[test]
fn inflight_cap_shed_is_typed_counted_and_trace_attributed() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(64)
            // Cap 0: every submission is over its tenant's in-flight cap
            // the moment it arrives — a deterministic shed.
            .with_tenant_inflight_cap(0),
        &rec,
    );
    let err = server
        .submit_compile(
            CompileJob::new(arch(), cheap_circuits())
                .with_options(serial())
                .with_tenant("capped"),
        )
        .expect_err("cap 0 sheds everything");
    match &err {
        SubmitError::Shed {
            reason:
                ShedReason::TenantInflight {
                    inflight: 0,
                    cap: 0,
                },
        } => {}
        other => panic!("expected typed inflight shed, got {other:?}"),
    }

    // Counted: globally, per reason, and on the tenant's ledger.
    let report = server.report();
    assert_eq!(report.jobs_shed, 1);
    assert_eq!(report.shed_tenant_inflight, 1);
    assert_eq!(report.shed_queue_watermark, 0);
    let stats = server.tenant_stats("capped").expect("ledger exists");
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.shed, 1);
    assert!(stats.is_conserved());

    // Trace-attributed: the shed left a correlated `job_shed` event naming
    // the tenant and reason.
    let events = rec.trace_events();
    let shed = events
        .iter()
        .find(|e| e.name == "job_shed")
        .expect("shed traced");
    assert_eq!(shed.tenant.as_deref(), Some("capped"));
    let job = shed.job.expect("shed event carries the job id");
    let trace = job_trace(&events, job).expect("reconstructable");
    let traced_shed = trace.instant("job_shed").expect("shed in the job trace");
    assert_eq!(
        traced_shed.arg_str("reason"),
        Some("tenant_inflight"),
        "typed reason rides on the event"
    );
}

#[test]
fn queue_watermark_shed_fires_before_hard_capacity() {
    let server = Server::new(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(64)
            // Watermark 0 sheds on depth 0 — before capacity could matter.
            .with_queue_watermark(0),
    );
    let err = server
        .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        .expect_err("watermark 0 sheds everything");
    match err {
        SubmitError::Shed {
            reason:
                ShedReason::QueueWatermark {
                    depth: 0,
                    watermark: 0,
                },
        } => {}
        other => panic!("expected watermark shed, got {other:?}"),
    }
    // Unlabeled jobs are charged to the default tenant.
    let stats = server
        .tenant_stats(DEFAULT_TENANT)
        .expect("default-tenant ledger");
    assert_eq!(stats.shed, 1);
    assert!(stats.is_conserved());
}

#[test]
fn snapshot_reports_drained_server_health() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_capacity(16),
        &rec,
    );
    let outcome = server
        .submit_compile(
            CompileJob::new(arch(), cheap_circuits())
                .with_options(serial())
                .with_tenant("snap"),
        )
        .expect("accepted")
        .wait()
        .expect("compiles");
    for _ in 0..4 {
        server
            .submit_sim(SimJob::new(outcome.session, 0, vec![vec![3; 5]; 4]).with_tenant("snap"))
            .expect("accepted")
            .wait()
            .expect("completes");
    }
    let snap = server.snapshot();
    assert_eq!(snap.queue_depth, 0, "drained");
    assert_eq!(snap.queue_capacity, 16);
    assert!(snap.queue_depth_hwm >= 1, "jobs were queued at some point");
    assert_eq!(snap.inflight, 0);
    assert_eq!(snap.workers, 2);
    assert!(snap.busy_workers <= snap.workers);
    assert!((0.0..=1.0).contains(&snap.worker_utilization));
    assert_eq!(snap.sessions, server.n_sessions());
    assert_eq!(snap.cached_designs, server.cached_designs());
    assert!(snap.rolling_wait_p99_us >= 0.0);
    assert!(snap.rolling_service_p99_us > 0.0, "jobs were serviced");
    assert_eq!(snap.jobs_shed, 0);
    assert_eq!(snap.trace_dropped, 0);
    let snap_tenant = snap
        .tenant_inflight
        .iter()
        .find(|t| t.tenant == "snap")
        .expect("tenant gauge present");
    assert_eq!(snap_tenant.inflight, 0);
    // The snapshot agrees with the report's authoritative watermark, and
    // the recorder's queue-depth gauge was derived from the same counter.
    let report = server.report();
    assert_eq!(report.queue_depth_hwm, snap.queue_depth_hwm as u64);
    assert_eq!(rec.gauge("serve.queue_depth"), Some(0.0));
    assert_eq!(
        rec.gauge("serve.queue_depth_hwm"),
        Some(snap.queue_depth_hwm as f64)
    );
    assert_eq!(report.trace_dropped, 0);
}

#[test]
fn compile_job_trace_includes_per_context_compile_children() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let circuits = vec![library::adder(2), library::parity(3)];
    let handle = server
        .submit_compile(
            CompileJob::new(arch(), circuits)
                .with_options(serial())
                .with_tenant("tracer"),
        )
        .expect("accepted");
    let job = handle.job().raw();
    let outcome = handle.wait().expect("compiles");
    assert_eq!(outcome.job.raw(), job, "outcome echoes the handle's id");
    assert!(!outcome.cache_hit);

    let events = rec.trace_events();
    let trace = job_trace(&events, job).expect("job left correlated events");
    assert_eq!(trace.tenant.as_deref(), Some("tracer"));
    // The full request path: submit-side instant, dequeue, the compile_job
    // span, its cache lookup, and the per-context compile spans the job
    // caused inside the pipeline.
    assert!(trace.instant("job_submitted").is_some());
    assert!(trace.instant("job_dequeued").is_some());
    let root = trace.span("compile_job").expect("compile span");
    assert!(root.duration_us().is_some(), "span closed");
    assert!(trace.instant("cache_lookup").is_some());
    let contexts = ["compile_context"]
        .iter()
        .map(|n| {
            fn count(s: &mcfpga_obs::JobSpan, name: &str) -> usize {
                (s.name == name) as usize + s.children.iter().map(|c| count(c, name)).sum::<usize>()
            }
            count(root, n)
        })
        .sum::<usize>();
    assert_eq!(contexts, 2, "one compile_context span per circuit");

    // A second, uncorrelated activity does not leak into this job's trace.
    let job_events = events.iter().filter(|e| e.job == Some(job)).count();
    assert_eq!(trace.n_events, job_events);
}

/// Span totals take constant memory: serving more jobs raises each name's
/// count, not the number of entries. One worker's job spans never overlap,
/// so their wall time is their busy time.
#[test]
fn span_totals_hold_one_entry_per_name_however_many_jobs_run() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let session = server
        .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles")
        .session;
    let serve = |jobs: usize| {
        for _ in 0..jobs {
            server
                .submit_sim(SimJob::new(session, 0, vec![vec![3; 5]; 4]))
                .expect("accepted")
                .wait()
                .expect("completes");
        }
        rec.report("serve")
    };
    let early = serve(100);
    let late = serve(2_000);
    assert_eq!(early.spans.len(), late.spans.len());
    for (report, served) in [(&early, 100), (&late, 2_100)] {
        let sim = report.span("sim_job").expect("sim jobs are timed");
        assert_eq!(sim.count, served);
        assert_eq!(sim.wall_us, sim.busy_us);
    }
}

/// A served compile runs the same per-context unit as a direct one: each
/// compiled context leaves one `map`, one `place` and one `route` span,
/// directly inside that context's `compile_context` span and correlated
/// with the job that caused it, on whichever pool thread ran it.
#[test]
fn served_compile_traces_one_map_place_route_unit_per_context() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let circuits = vec![
        library::adder(2),
        library::parity(3),
        library::comparator(2),
    ];
    let handle = server
        .submit_compile(CompileJob::new(arch(), circuits.clone()))
        .expect("accepted");
    let job = handle.job().raw();
    handle.wait().expect("compiles");

    let events = rec.trace_events();
    let trace = job_trace(&events, job).expect("job left correlated events");
    fn units<'a>(s: &'a JobSpan, out: &mut Vec<&'a JobSpan>) {
        if s.name == "compile_context" {
            out.push(s);
        }
        for c in &s.children {
            units(c, out);
        }
    }
    let mut found = Vec::new();
    for root in &trace.roots {
        units(root, &mut found);
    }
    let mut contexts: Vec<u64> = found
        .iter()
        .map(|unit| {
            let (_, context) = unit
                .args
                .iter()
                .find(|(k, _)| k == "context")
                .expect("compile_context names its context");
            let children: Vec<&str> = unit.children.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(children, ["map", "place", "route"], "context {context:?}");
            context.as_u64().expect("integral context")
        })
        .collect();
    contexts.sort_unstable();
    assert_eq!(contexts, [0, 1, 2], "one unit per compiled context");
    // No per-context phase ran outside those units.
    for phase in ["map", "place", "route"] {
        let jobs: Vec<_> = events
            .iter()
            .filter(|e| e.name == phase && e.phase == TracePhase::Begin)
            .map(|e| e.job)
            .collect();
        assert_eq!(jobs, vec![Some(job); circuits.len()], "{phase}");
    }
}

/// The health snapshot's and the report's refusal counts come from state
/// the server keeps whether or not it records: `jobs_shed` counts sheds per
/// reason, and `jobs_rejected` counts QueueFull and Shutdown refusals but
/// not malformed submissions (which the ledger also files under
/// `rejected`).
#[test]
fn snapshot_counts_refusals_without_a_recorder() {
    let shedding = Server::new(
        ServeConfig::default()
            .with_workers(1)
            .with_tenant_inflight_cap(0),
    );
    let shed = shedding.submit_compile(CompileJob::new(arch(), cheap_circuits()));
    assert!(matches!(shed, Err(SubmitError::Shed { .. })), "{shed:?}");
    let snap = shedding.snapshot();
    assert_eq!(shedding.tenant_stats(DEFAULT_TENANT).unwrap().shed, 1);
    assert_eq!((snap.jobs_shed, snap.jobs_rejected), (1, 0));
    let report = shedding.report();
    assert_eq!((report.jobs_shed, report.jobs_rejected), (1, 0));
    assert_eq!(
        (report.shed_tenant_inflight, report.shed_queue_watermark),
        (1, 0)
    );

    // A snapshot from an admitting server, made malformed by its version.
    let open = Server::new(ServeConfig::default().with_workers(1));
    let session = open
        .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles")
        .session;
    let mut future = open.checkpoint_session(session).expect("checkpoint");
    future.version = SNAPSHOT_VERSION + 1;

    // Capacity 0: every well-formed submission is refused with QueueFull.
    let full = Server::new(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(0),
    );
    let malformed = full.submit(RestoreJob::new(future));
    assert!(
        matches!(malformed, Err(SubmitError::Malformed { .. })),
        "{malformed:?}"
    );
    let refused = full.submit_compile(CompileJob::new(arch(), cheap_circuits()));
    assert!(
        matches!(refused, Err(SubmitError::QueueFull { capacity: 0 })),
        "{refused:?}"
    );
    let snap = full.snapshot();
    assert_eq!(full.tenant_stats(DEFAULT_TENANT).unwrap().rejected, 2);
    assert_eq!((snap.jobs_shed, snap.jobs_rejected), (0, 1));
    let report = full.report();
    assert_eq!((report.jobs_shed, report.jobs_rejected), (0, 1));
    assert_eq!((report.jobs_malformed, report.jobs_submitted), (1, 0));
}

/// `Server::report()` reads job outcomes and cache lookups from the
/// server's own ledger, so a server without a recorder counts its jobs in
/// the report's totals as it does in the tenant row.
#[test]
fn report_counts_jobs_without_a_recorder() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    server
        .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    let report = server.report();
    assert_eq!(
        (
            report.jobs_submitted,
            report.jobs_completed,
            report.cache_misses
        ),
        (1, 1, 1)
    );
    assert_eq!(
        (
            report.jobs_failed,
            report.jobs_expired,
            report.cache_hits,
            report.jobs_malformed
        ),
        (0, 0, 0, 0)
    );
    let row = &report.tenants[0].stats;
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(
        (row.submitted, row.completed, row.cache_misses),
        (
            report.jobs_submitted,
            report.jobs_completed,
            report.cache_misses
        )
    );
}
