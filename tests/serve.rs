//! Integration tests of the multi-tenant serving layer: backpressure,
//! deadlines, cache identity, and session isolation under concurrency.

use std::time::Duration;

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::{library, Netlist};
use mcfpga_obs::Recorder;
use mcfpga_serve::{
    CompileJob, CompileOutcome, ServeConfig, ServeError, Server, SessionId, SimJob, SubmitError,
};
use mcfpga_sim::{CompileOptions, MultiDevice};
use proptest::prelude::*;

fn arch() -> ArchSpec {
    ArchSpec::paper_default()
}

/// Serial compile inside jobs: the serve worker pool is the parallelism.
fn serial() -> CompileOptions {
    CompileOptions::default().with_parallel(false)
}

/// A compile heavy enough to occupy a worker while cheap jobs pile up.
fn heavy_circuits() -> Vec<Netlist> {
    vec![
        library::adder(4),
        library::multiplier(3),
        library::alu(4),
        library::popcount(6),
    ]
}

fn cheap_circuits() -> Vec<Netlist> {
    vec![library::adder(2)]
}

#[test]
fn saturated_queue_rejects_with_queue_full_and_accepted_jobs_complete() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
        &rec,
    );
    // The single worker dequeues this almost immediately and is then busy
    // compiling for a long time relative to the submissions below.
    let heavy = server
        .submit_compile(CompileJob::new(arch(), heavy_circuits()).with_options(serial()))
        .expect("first job accepted");

    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..5 {
        match server
            .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        {
            Ok(handle) => accepted.push(handle),
            Err(SubmitError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        rejected >= 1,
        "5 rapid submissions into a 2-slot queue behind a busy worker \
         must trip backpressure"
    );

    // Backpressure rejects loudly but accepted work is never lost.
    heavy.wait().expect("heavy job completes");
    for handle in accepted {
        handle.wait().expect("accepted job completes");
    }
    let report = server.report();
    assert_eq!(report.jobs_rejected, rejected as u64);
    assert_eq!(report.jobs_completed, report.jobs_submitted);
}

#[test]
fn expired_deadline_returns_typed_error_not_a_hang() {
    let rec = Recorder::enabled();
    let server = Server::with_recorder(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_capacity(8),
        &rec,
    );
    // Occupy the worker so the deadline job measurably waits in queue.
    let heavy = server
        .submit_compile(CompileJob::new(arch(), heavy_circuits()).with_options(serial()))
        .expect("accepted");
    let doomed = server
        .submit_compile(
            CompileJob::new(arch(), cheap_circuits())
                .with_options(serial())
                .with_deadline(Duration::ZERO),
        )
        .expect("accepted");
    match doomed.wait() {
        Err(ServeError::Deadline { waited_us: _ }) => {}
        Ok(_) => panic!("zero deadline must expire, not run"),
        Err(e) => panic!("wrong error for expired deadline: {e}"),
    }
    heavy.wait().expect("heavy job unaffected");
    assert_eq!(server.report().jobs_expired, 1);
}

#[test]
fn cache_hit_returns_the_cold_compile_artifact_bit_for_bit() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    let job = || CompileJob::new(arch(), heavy_circuits()).with_options(serial());
    let cold = server
        .submit_compile(job())
        .expect("accepted")
        .wait()
        .expect("compiles");
    let warm = server
        .submit_compile(job())
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(!cold.cache_hit, "first submission must compile");
    assert!(warm.cache_hit, "repeat submission must hit cache");
    assert!(
        std::sync::Arc::ptr_eq(&cold.design, &warm.design),
        "cache hit must share the artifact, not copy it"
    );
    assert_ne!(
        cold.session, warm.session,
        "each tenant gets its own session"
    );

    // Bit-identical to a direct, server-free compile of the same content.
    let mut direct =
        MultiDevice::compile_opts(&arch(), &heavy_circuits(), &serial(), &Recorder::disabled())
            .expect("direct compile");
    assert_eq!(warm.design.n_contexts(), direct.n_contexts());
    for c in 0..direct.n_contexts() {
        assert_eq!(
            warm.design.kernel(c),
            direct.kernel(c).expect("context in range"),
            "context {c} kernel diverged from the cold path"
        );
        assert_eq!(
            warm.design.kernel(c),
            &direct.compiled_kernels()[c].optimize(),
            "context {c} served unoptimized"
        );
        assert_eq!(
            warm.design.initial_registers(c),
            &direct.initial_registers(c).expect("context in range")[..],
        );
    }
    assert_eq!(cold.design.fingerprint(), warm.design.fingerprint());
    // The parallel schedule is excluded from the content address: it is
    // proven to produce a bit-identical artifact, so it shares the slot.
    let parallel = server
        .submit_compile(CompileJob::new(arch(), heavy_circuits()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(
        parallel.cache_hit,
        "parallel schedule must share the cache slot"
    );
}

#[test]
fn sim_against_unknown_session_is_a_typed_error() {
    let server = Server::new(ServeConfig::default().with_workers(1));
    let compiled = server
        .submit_compile(CompileJob::new(arch(), cheap_circuits()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    assert!(server.close_session(compiled.session));
    assert!(!server.close_session(compiled.session), "already closed");
    let n_in = compiled.design.kernel(0).n_inputs();
    let result = server
        .submit_sim(SimJob::new(compiled.session, 0, vec![vec![0u64; n_in]]))
        .expect("accepted")
        .wait();
    match result {
        Err(ServeError::SessionNotFound { session }) => {
            assert_eq!(session, compiled.session)
        }
        other => panic!("expected SessionNotFound, got {other:?}"),
    }
}

/// Run one scripted op as a served sim job on `session` and return its
/// output rows.
fn serve_op(
    server: &Server,
    compiled: &CompileOutcome,
    session: SessionId,
    op: Op,
) -> Vec<Vec<u64>> {
    let n_in = compiled.design.kernel(op.context).n_inputs();
    let words = (0..op.cycles)
        .map(|cycle| words_for(op, cycle, n_in))
        .collect();
    server
        .submit_sim(SimJob::new(session, op.context, words))
        .expect("accepted")
        .wait()
        .expect("sim job")
        .outputs
}

/// A checkpoint taken after 13-cycle jobs on both contexts, which end
/// part-way through the kernel's 8-cycle blocks, restores to a session
/// whose next jobs match the uninterrupted session's, and both match a
/// private replay.
#[test]
fn restore_after_a_mid_block_job_continues_like_the_uninterrupted_session() {
    let circuits = vec![library::counter(4), library::lfsr(8, 0x8e)];
    let server = Server::new(ServeConfig::default().with_workers(1));
    let compiled = server
        .submit_compile(CompileJob::new(arch(), circuits.clone()).with_options(serial()))
        .expect("accepted")
        .wait()
        .expect("compiles");
    let ops = [(0, 13, 7), (1, 13, 8), (0, 11, 9), (1, 5, 10)].map(|(context, cycles, seed)| Op {
        context,
        cycles,
        seed,
    });
    let head: Vec<_> = ops[..2]
        .iter()
        .map(|&op| serve_op(&server, &compiled, compiled.session, op))
        .collect();
    let snapshot = server
        .checkpoint_session(compiled.session)
        .expect("checkpoint");
    assert_eq!(snapshot.words_stepped, 26);
    let restored = server.restore_session(snapshot).expect("restore").session;
    let tail = |session| -> Vec<_> {
        ops[2..]
            .iter()
            .map(|&op| serve_op(&server, &compiled, session, op))
            .collect()
    };
    let uninterrupted = tail(compiled.session);
    assert_eq!(tail(restored), uninterrupted);
    let reference = reference_outputs(&circuits, &ops);
    assert_eq!(head, reference[..2]);
    assert_eq!(uninterrupted, reference[2..]);
}

/// One tenant's scripted activity: which context to run and how many
/// batched cycles, with a seed expanding to the input words.
#[derive(Debug, Clone, Copy)]
struct Op {
    context: usize,
    cycles: usize,
    seed: u64,
}

fn words_for(op: Op, cycle: usize, n_inputs: usize) -> Vec<u64> {
    (0..n_inputs)
        .map(|i| {
            let x = op
                .seed
                .wrapping_add((cycle as u64) << 32)
                .wrapping_add(i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^ (x >> 29)
        })
        .collect()
}

/// Replay one tenant's ops on a private, server-free device — the ground
/// truth a session must match no matter how the other tenant interleaves.
fn reference_outputs(circuits: &[Netlist], ops: &[Op]) -> Vec<Vec<Vec<u64>>> {
    let mut device = MultiDevice::compile_opts(&arch(), circuits, &serial(), &Recorder::disabled())
        .expect("reference compile");
    ops.iter()
        .map(|op| {
            device.try_switch_context(op.context).expect("context");
            (0..op.cycles)
                .map(|cycle| {
                    let n_in = device.kernel(op.context).expect("context").n_inputs();
                    device
                        .try_step_batch(&words_for(*op, cycle, n_in))
                        .expect("reference step")
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two tenants run *stateful* circuits (a counter and an LFSR, so any
    /// register leakage changes outputs) through one server concurrently,
    /// under a proptest-chosen interleaving of contexts and cycle counts.
    /// Jobs of 0 to 19 cycles start and end part-way through the kernel's
    /// 8-cycle blocks. Each tenant's outputs must equal a private replay of
    /// its own script.
    #[test]
    fn concurrent_sessions_never_cross_contaminate(
        raw_ops in proptest::collection::vec(
            (0usize..2, 0usize..2, 0usize..20, 0u64..u64::MAX),
            2..10,
        )
    ) {
        let circuits = vec![library::counter(4), library::lfsr(8, 0x8e)];
        let ops: Vec<(usize, Op)> = raw_ops
            .into_iter()
            .map(|(tenant, context, cycles, seed)| {
                (tenant, Op { context, cycles, seed })
            })
            .collect();
        let per_tenant: Vec<Vec<Op>> = (0..2)
            .map(|t| ops.iter().filter(|(o, _)| *o == t).map(|(_, op)| *op).collect())
            .collect();

        let server = Server::new(ServeConfig::default().with_workers(2));
        let sessions: Vec<_> = (0..2)
            .map(|_| {
                server
                    .submit_compile(
                        CompileJob::new(arch(), circuits.clone()).with_options(serial()),
                    )
                    .expect("accepted")
                    .wait()
                    .expect("compiles")
            })
            .collect();

        // Both tenants drive the server at the same time; within a tenant,
        // jobs are sequential (wait before next submit) so its own order is
        // defined while the cross-tenant interleaving is scheduler-chosen.
        let served: Vec<Vec<Vec<Vec<u64>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_tenant
                .iter()
                .zip(&sessions)
                .map(|(tenant_ops, compiled)| {
                    let server = &server;
                    scope.spawn(move || {
                        tenant_ops
                            .iter()
                            .map(|&op| serve_op(server, compiled, compiled.session, op))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("tenant thread")).collect()
        });

        for (tenant, outputs) in served.iter().enumerate() {
            let reference = reference_outputs(&circuits, &per_tenant[tenant]);
            prop_assert_eq!(
                outputs,
                &reference,
                "tenant {}'s outputs diverged from its private replay",
                tenant
            );
        }
    }
}
