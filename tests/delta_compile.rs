//! Integration tests of delta compilation: the near-match design cache,
//! per-context artifact reuse, and the non-negotiable property that a
//! delta-compiled design is bit-for-bit identical to a cold compile of the
//! same request — kernels, initial register state, and switch-bitstream
//! fingerprint.

use std::time::Duration;

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::{library, perturb_netlist, random_netlist, Netlist, RandomNetlistParams};
use mcfpga_obs::{job_trace, Recorder};
use mcfpga_serve::{
    CompileJob, CompiledDesign, DesignFingerprint, RestoreJob, ServeConfig, ServeError, Server,
};
use mcfpga_sim::CompileOptions;
use proptest::prelude::*;

fn arch() -> ArchSpec {
    ArchSpec::paper_default()
}

/// Serial compile inside jobs: the serve worker pool is the parallelism.
fn serial() -> CompileOptions {
    CompileOptions::default().with_parallel(false)
}

/// Perturb `base` until the result actually differs: `perturb_netlist` is
/// probabilistic per gate, so a small fraction on a small netlist can be a
/// no-op — which would silently turn a near-match test into an exact-hit
/// test.
fn perturbed_distinct(base: &Netlist, fraction: f64, seed: u64) -> Netlist {
    for s in seed.. {
        let p = perturb_netlist(base, fraction, s);
        if p != *base {
            return p;
        }
    }
    unreachable!("some seed perturbs the netlist");
}

/// Assert two designs are the same artifact bit for bit: every context's
/// compiled kernel and initial register image, plus the switch-bitstream
/// fingerprint covering the full multi-context configuration.
fn assert_bit_identical(delta: &CompiledDesign, cold: &CompiledDesign) {
    assert_eq!(delta.n_contexts(), cold.n_contexts());
    for c in 0..cold.n_contexts() {
        assert_eq!(
            delta.kernel(c),
            cold.kernel(c),
            "context {c} kernel diverged between delta and cold compile"
        );
        assert_eq!(
            delta.initial_registers(c),
            cold.initial_registers(c),
            "context {c} initial register state diverged"
        );
    }
    assert_eq!(
        delta.fingerprint(),
        cold.fingerprint(),
        "switch-bitstream fingerprint diverged between delta and cold compile"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The acceptance property: over random workloads (with register state),
    /// random context counts, and random per-context perturbations — from a
    /// single substituted gate up to half the netlist — delta compilation
    /// against a stale base produces exactly the artifact a cold compile
    /// produces. Reuse is an optimization of time, never of content.
    #[test]
    fn delta_compile_is_bit_identical_to_cold(
        seed in 0u64..1_000_000,
        n_contexts in 1usize..4,
        mask in 1u32..8,
        rate_sel in 0usize..3,
    ) {
        let params = RandomNetlistParams {
            n_inputs: 6,
            n_gates: 28,
            n_outputs: 5,
            dff_fraction: 0.3,
        };
        let base: Vec<Netlist> = (0..n_contexts)
            .map(|c| random_netlist(params, seed.wrapping_add(c as u64)))
            .collect();
        // Perturb the contexts selected by `mask` (at least one — masks that
        // miss every context fall back to context 0, so the delta path
        // always has real work to prove itself on).
        let rate = [0.04, 0.05, 0.5][rate_sel];
        let hit = |c: usize| mask & (1 << c) != 0;
        let any_hit = (0..n_contexts).any(hit);
        let variant: Vec<Netlist> = base
            .iter()
            .enumerate()
            .map(|(c, n)| {
                if hit(c) || (!any_hit && c == 0) {
                    perturb_netlist(n, rate, seed ^ 0x9e37_79b9 ^ c as u64)
                } else {
                    n.clone()
                }
            })
            .collect();

        let opts = serial();
        let a = arch();
        let base_design = CompiledDesign::compile(&a, &base, &opts).expect("base compiles");
        let (delta, stats) = CompiledDesign::delta_compile_with(
            &a, &variant, &opts, &Recorder::disabled(), &base_design, None,
        )
        .expect("delta compiles");
        let cold = CompiledDesign::compile(&a, &variant, &opts).expect("cold compiles");

        assert_bit_identical(&delta, &cold);

        // The stats must agree with the fingerprints: exactly the contexts
        // whose netlist hash survived perturbation are reused verbatim.
        let base_fp = DesignFingerprint::new(&a, &base, &opts);
        let var_fp = DesignFingerprint::new(&a, &variant, &opts);
        prop_assert_eq!(stats.contexts_total, n_contexts);
        prop_assert_eq!(stats.contexts_reused, base_fp.shared_contexts(&var_fp));
    }
}

#[test]
fn register_initial_state_survives_delta_compile() {
    // A workload dominated by DFFs with nontrivial init values: any reuse
    // bug that drops or reorders register state shows up here.
    let params = RandomNetlistParams {
        n_inputs: 5,
        n_gates: 24,
        n_outputs: 4,
        dff_fraction: 0.6,
    };
    let base: Vec<Netlist> = (0..3).map(|c| random_netlist(params, 77 + c)).collect();
    let mut variant = base.clone();
    variant[1] = perturbed_distinct(&base[1], 0.05, 1234);

    let opts = serial();
    let a = arch();
    let base_design = CompiledDesign::compile(&a, &base, &opts).expect("base compiles");
    let (delta, stats) = CompiledDesign::delta_compile_with(
        &a,
        &variant,
        &opts,
        &Recorder::disabled(),
        &base_design,
        None,
    )
    .expect("delta compiles");
    let cold = CompiledDesign::compile(&a, &variant, &opts).expect("cold compiles");
    assert_bit_identical(&delta, &cold);
    assert_eq!(stats.contexts_total, 3);
    // Contexts 0 and 2 are untouched; context 1 was perturbed.
    assert_eq!(stats.contexts_reused, 2);
}

#[test]
fn delta_handles_context_count_changes_against_the_base() {
    // A variant may have more or fewer contexts than its near-match base:
    // extra contexts compile cold, missing ones just drop.
    let opts = serial();
    let a = arch();
    let two = vec![library::adder(3), library::parity(5)];
    let base_design = CompiledDesign::compile(&a, &two, &opts).expect("base compiles");

    let three = vec![library::adder(3), library::parity(5), library::counter(4)];
    let (grown, stats) = CompiledDesign::delta_compile_with(
        &a,
        &three,
        &opts,
        &Recorder::disabled(),
        &base_design,
        None,
    )
    .expect("delta compiles");
    assert_eq!(stats.contexts_total, 3);
    assert_eq!(stats.contexts_reused, 2, "both shared contexts reused");
    assert_bit_identical(
        &grown,
        &CompiledDesign::compile(&a, &three, &opts).expect("cold"),
    );

    let one = vec![library::parity(5)];
    let (shrunk, stats) = CompiledDesign::delta_compile_with(
        &a,
        &one,
        &opts,
        &Recorder::disabled(),
        &base_design,
        None,
    )
    .expect("delta compiles");
    assert_eq!(stats.contexts_total, 1);
    // parity(5) sits at context 0 in `one` but context 1 in the base:
    // position-wise matching means it recompiles, not misreuses.
    assert_eq!(stats.contexts_reused, 0);
    assert_bit_identical(
        &shrunk,
        &CompiledDesign::compile(&a, &one, &opts).expect("cold"),
    );
}

#[test]
fn near_match_submission_delta_compiles_and_matches_cold_artifact() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let base = vec![
        library::adder(3),
        library::multiplier(3),
        library::parity(6),
    ];
    let mut variant = base.clone();
    variant[2] = perturbed_distinct(&base[2], 0.05, 42);

    let cold = server
        .submit_compile(CompileJob::new(arch(), base).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(!cold.cache_hit);
    assert!(cold.delta.is_none(), "cold compile reports no delta stats");

    let near = server
        .submit_compile(CompileJob::new(arch(), variant.clone()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(!near.cache_hit, "near match is not an exact hit");
    let stats = near.delta.expect("near match must take the delta path");
    assert_eq!(stats.contexts_total, 3);
    assert_eq!(stats.contexts_reused, 2, "untouched contexts reused");

    // The served delta artifact is bit-identical to a server-free cold
    // compile of the perturbed request.
    let direct = CompiledDesign::compile(&arch(), &variant, &serial()).expect("direct compile");
    assert_bit_identical(&near.design, &direct);

    // And the delta-compiled design is itself cached under its own key.
    let repeat = server
        .submit_compile(CompileJob::new(arch(), variant).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(repeat.cache_hit, "delta result serves later exact hits");

    let report = server.report();
    assert_eq!(report.cache_near_hits, 1);
    assert_eq!(report.delta_contexts_reused, 2);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 2);
}

#[test]
fn deadline_expiring_mid_service_fails_between_context_phases() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    // The worker is idle, so the queue wait is microseconds — but the first
    // context alone takes far longer than the deadline, so the budget check
    // between per-context compile phases is what must fire. Retry a few
    // times so a pathological scheduler stall at dequeue (which would expire
    // the job in-queue instead) cannot flake the test.
    let mut in_service = false;
    for _ in 0..3 {
        let doomed = server
            .submit_compile(
                CompileJob::new(arch(), vec![library::multiplier(4); 3])
                    .with_options(serial())
                    .with_deadline(Duration::from_millis(3)),
            )
            .expect("accepted");
        match doomed.wait() {
            Err(ServeError::Deadline { .. }) => {}
            Ok(_) => panic!("a 3ms deadline cannot cover three multiplier contexts"),
            Err(e) => panic!("wrong error for mid-service expiry: {e}"),
        }
        if server.report().jobs_expired_in_service >= 1 {
            in_service = true;
            break;
        }
    }
    assert!(
        in_service,
        "deadline must be caught between compile phases, not only at dequeue"
    );
    let report = server.report();
    // Breakdown, not a new conservation bucket: in-service expiries are
    // failed jobs that also consumed worker time.
    assert_eq!(report.jobs_failed, report.jobs_expired_in_service);
    assert_eq!(
        report.jobs_submitted,
        report.jobs_completed + report.jobs_failed + report.jobs_expired
    );
}

/// A queued restore that misses the cache recompiles under the same
/// in-service deadline check as a compile: its budget is polled between
/// per-context compile phases, not only at dequeue.
#[test]
fn queued_restore_expiring_mid_service_fails_between_context_phases() {
    let origin = Server::new(ServeConfig::default().with_workers(1));
    let session = origin
        .submit_compile(
            CompileJob::new(arch(), vec![library::multiplier(4); 3]).with_options(serial()),
        )
        .expect("accepted")
        .wait()
        .expect("compiles")
        .session;
    let snapshot = origin.checkpoint_session(session).expect("checkpoint");

    // A fresh server has nothing cached, so the restore must recompile all
    // three contexts. Retry like the compile test above: a scheduler stall
    // at dequeue would expire the job in-queue instead.
    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let mut in_service = None;
    for _ in 0..3 {
        let doomed = server
            .submit_restore(
                RestoreJob::new(snapshot.clone()).with_deadline(Duration::from_millis(3)),
            )
            .expect("accepted");
        let job = doomed.job().raw();
        match doomed.wait() {
            Err(ServeError::Deadline { .. }) => {}
            Ok(_) => panic!("a 3ms deadline cannot cover recompiling three multiplier contexts"),
            Err(e) => panic!("wrong error for mid-service expiry: {e}"),
        }
        if server.report().jobs_expired_in_service >= 1 {
            in_service = Some(job);
            break;
        }
    }
    let job = in_service
        .expect("a restore's deadline must be caught between compile phases, not only at dequeue");
    // The job's own trace shows where it stopped: inside its restore span,
    // after a cache lookup like a compile's.
    let events = rec.trace_events();
    let trace = job_trace(&events, job).expect("the restore left correlated events");
    assert!(trace.span("restore_job").is_some());
    assert!(trace.instant("cache_lookup").is_some());
    assert!(trace.instant("job_expired_in_service").is_some());
    let report = server.report();
    assert_eq!(report.jobs_failed, report.jobs_expired_in_service);
    assert_eq!(report.restores, 0, "no expired restore opens a session");
    assert_eq!(server.n_sessions(), 0);
    let tenant = server
        .tenant_stats(&snapshot.tenant)
        .expect("the restore job is charged to the snapshot's tenant");
    assert!(tenant.is_conserved(), "{tenant:?}");
    assert_eq!(tenant.failed + tenant.expired, tenant.submitted);
}

/// The cache-lookup counters a design resolution moves: the server's hits,
/// misses, near hits, evictions and reused contexts, then `tenant`'s hits
/// and misses.
fn lookup_counters(server: &Server, tenant: &str) -> [u64; 7] {
    let r = server.report();
    let t = server.tenant_stats(tenant).unwrap_or_default();
    [
        r.cache_hits,
        r.cache_misses,
        r.cache_near_hits,
        r.cache_evictions,
        r.delta_contexts_reused,
        t.cache_hits,
        t.cache_misses,
    ]
}

/// A restore resolves its design through the same cache lookup as a
/// compile of the snapshot's request, and moves the same counters by the
/// same amounts — on an exact hit, a near hit and a cold miss, queued or
/// synchronous.
#[test]
fn restore_counts_its_cache_lookup_like_a_compile_of_the_same_request() {
    let base = vec![
        library::adder(3),
        library::multiplier(3),
        library::parity(6),
    ];
    let mut request = base.clone();
    request[2] = perturbed_distinct(&base[2], 0.05, 42);
    let unrelated = vec![library::counter(4)];
    let tenant = "lookups";
    let compile = |server: &Server, circuits: &[Netlist], tenant: &str| {
        server
            .submit_compile(
                CompileJob::new(arch(), circuits.to_vec())
                    .with_options(serial())
                    .with_tenant(tenant),
            )
            .expect("accepted")
            .wait()
            .expect("compiles")
    };
    let origin = Server::new(ServeConfig::default().with_workers(1));
    let session = compile(&origin, &request, tenant).session;
    let snapshot = origin.checkpoint_session(session).expect("checkpoint");
    assert_eq!(snapshot.tenant, tenant);

    // Each path starts from a one-design cache holding the request itself
    // (exact hit), its base (near hit), or an unrelated design (cold miss).
    // The expected moves are [hits, misses, near hits, evictions, contexts
    // reused, tenant hits, tenant misses].
    let paths: [(&str, &[Netlist], [u64; 7]); 3] = [
        ("exact", &request, [1, 0, 0, 0, 0, 1, 0]),
        ("near", &base, [0, 1, 1, 1, 2, 0, 1]),
        ("cold", &unrelated, [0, 1, 0, 1, 0, 0, 1]),
    ];
    for (path, cached, expected) in paths {
        let moved = |resolve: &dyn Fn(&Server)| {
            let server = Server::with_recorder(
                ServeConfig::default()
                    .with_workers(1)
                    .with_cache_capacity(1),
                &Recorder::enabled(),
            );
            compile(&server, cached, "warm-up");
            let before = lookup_counters(&server, tenant);
            resolve(&server);
            let after = lookup_counters(&server, tenant);
            std::array::from_fn::<u64, 7, _>(|i| after[i] - before[i])
        };
        let by_compile = moved(&|server| {
            compile(server, &request, tenant);
        });
        let by_job = moved(&|server| {
            let restored = server
                .submit_restore(RestoreJob::new(snapshot.clone()))
                .expect("accepted")
                .wait()
                .expect("restores");
            assert_eq!(restored.recompiled, path != "exact", "{path}");
            assert_eq!(restored.delta.is_some(), path == "near", "{path}");
        });
        let by_call = moved(&|server| {
            server.restore_session(snapshot.clone()).expect("restores");
        });
        assert_eq!(by_compile, expected, "{path}: compile");
        assert_eq!(by_job, by_compile, "{path}: queued restore");
        assert_eq!(by_call, by_compile, "{path}: synchronous restore");
    }
}

#[test]
fn zero_cache_capacity_disables_caching_entirely() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_cache_capacity(0),
        &rec,
    );
    let job = || CompileJob::new(arch(), vec![library::adder(2)]).with_options(serial());
    let first = server
        .submit_compile(job())
        .expect("accepted")
        .wait()
        .expect("compiles");
    let second = server
        .submit_compile(job())
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(!first.cache_hit);
    assert!(
        !second.cache_hit,
        "capacity 0 must disable caching, not clamp to 1"
    );
    assert!(second.delta.is_none(), "no retained base, so no delta path");
    assert_eq!(server.cached_designs(), 0);
    let report = server.report();
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.cache_near_hits, 0);
    assert_eq!(report.cache_misses, 2);
}

/// A near-match restore records the same `delta_compile` event as a
/// near-hit compile: every key, the placement and route reuse counts
/// included.
#[test]
fn near_match_restore_records_the_same_delta_event_as_a_near_hit_compile() {
    let base = vec![
        library::adder(3),
        library::multiplier(3),
        library::parity(6),
    ];
    let mut compiled = base.clone();
    compiled[2] = perturbed_distinct(&base[2], 0.05, 42);
    let mut restored = base.clone();
    restored[1] = perturbed_distinct(&base[1], 0.05, 7);

    let rec = Recorder::enabled();
    let server = Server::with_recorder(ServeConfig::default().with_workers(1), &rec);
    let compile = |server: &Server, circuits: &[Netlist]| {
        server
            .submit_compile(CompileJob::new(arch(), circuits.to_vec()).with_options(serial()))
            .expect("accepted")
            .wait()
            .expect("compiles")
    };
    compile(&server, &base);
    let near = compile(&server, &compiled);
    assert!(near.delta.is_some(), "near-hit compile");

    // The snapshot comes from a server that compiled `restored` itself, so
    // here only a near match can serve it.
    let elsewhere = Server::new(ServeConfig::default().with_workers(1));
    let session = compile(&elsewhere, &restored).session;
    let snapshot = elsewhere.checkpoint_session(session).expect("checkpoint");
    let restore = server.restore_session(snapshot).expect("restore");
    assert!(restore.delta.is_some(), "near-match restore");

    let events = rec.trace_events();
    let keys = |job: u64| -> Vec<String> {
        let event = events
            .iter()
            .find(|e| e.name == "delta_compile" && e.job == Some(job))
            .expect("the job records a delta_compile event");
        event.args.iter().map(|(k, _)| k.clone()).collect()
    };
    assert_eq!(keys(restore.job.raw()), keys(near.job.raw()));
}
