//! `experiments shard` and its report, `BENCH_shard.json`.

use crate::gate::{self, check, Checks, Report, Violation};
use crate::header;
use mcfpga::netlist::library;
use mcfpga::prelude::*;
use serde::{Deserialize, Serialize};

/// Scale-out serving: a 5-tenant stateful workload across 3 shards with
/// continuous checkpointing, a live-migration bounce phase, and a mid-run
/// shard kill recovered entirely from the checkpoint store — zero lost
/// sessions and word-identical output against an unkilled reference router
/// (`BENCH_shard.json`).
pub fn run() {
    use mcfpga_serve::{CompileJob, ServeConfig, SessionId, ShardRouter, SimJob};
    use std::time::Duration;

    header("shard: checkpoint/restore, live migration, kill + recovery across 3 shards");

    let shards = 3usize;
    let jobs_per_tenant = 8usize;
    let words_per_job = 32usize;
    // The shard kill lands after this many completed rounds.
    let cut_at = 4usize;
    let arch = ArchSpec::paper_default();
    let opts = CompileOptions::default().with_parallel(false);

    // One distinct two-context stateful design per tenant: placement spreads
    // by fingerprint, and any lost or duplicated step after a migration or
    // recovery changes every subsequent counter/LFSR word.
    let designs: Vec<Vec<Netlist>> = vec![
        vec![library::counter(4), library::lfsr(8, 0x8e)],
        vec![library::counter(6), library::lfsr(8, 0xb8)],
        vec![library::counter(4), library::lfsr(6, 0x33)],
        vec![library::counter(5), library::lfsr(8, 0xa6)],
        vec![library::counter(6), library::lfsr(7, 0x4a)],
        vec![library::counter(8), library::lfsr(6, 0x2f)],
    ];
    let tenants = designs.len();

    let stim_word = |tenant: usize, job: usize, cycle: usize, input: usize| -> u64 {
        let x = (tenant as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((job as u64) << 40)
            .wrapping_add((cycle as u64) << 16)
            .wrapping_add(input as u64)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 31)
    };

    #[derive(Default)]
    struct RunStats {
        initial_placement: Vec<usize>,
        migrate_us: Vec<u64>,
        killed_shard: Option<usize>,
        sessions_on_killed: usize,
        sessions_recovered: usize,
        sessions_lost: usize,
        snapshot_bytes: u64,
        snapshots: u64,
        n_sessions_end: usize,
    }

    // One full workload pass. The `kill == false` pass is the unkilled
    // reference the failure-injected pass must match word for word.
    let run_workload = |kill: bool, rec: &Recorder| -> (Vec<Vec<Vec<Vec<u64>>>>, RunStats) {
        let router = ShardRouter::with_recorder(
            shards,
            ServeConfig::default()
                .with_workers(2)
                .with_queue_capacity(64),
            rec,
        );
        let mut stats = RunStats {
            initial_placement: vec![0; shards],
            ..RunStats::default()
        };

        // Compile one design per tenant; each opens that tenant's session.
        let mut sessions: Vec<SessionId> = Vec::new();
        let mut compiled = Vec::new();
        for (t, circuits) in designs.iter().enumerate() {
            let outcome = router
                .submit(
                    CompileJob::new(arch.clone(), circuits.clone())
                        .with_options(opts)
                        .with_tenant(format!("tenant-{t}")),
                )
                .expect("compile accepted")
                .wait()
                .expect("compile completes")
                .into_compile()
                .expect("compile outcome");
            sessions.push(outcome.session);
            compiled.push(outcome.design);
        }
        for &id in &sessions {
            stats.initial_placement[router.session_owner(id).expect("session alive")] += 1;
        }

        let mut outputs: Vec<Vec<Vec<Vec<u64>>>> = vec![Vec::new(); tenants];
        for job in 0..jobs_per_tenant {
            // Submit the whole round through the unified door, then drain
            // with the handle combinators (`map` + `wait_timeout`).
            let handles: Vec<_> = (0..tenants)
                .map(|t| {
                    let context = job % compiled[t].n_contexts();
                    let n_in = compiled[t].kernel(context).n_inputs();
                    let stim = (0..words_per_job)
                        .map(|cycle| (0..n_in).map(|i| stim_word(t, job, cycle, i)).collect())
                        .collect();
                    router
                        .submit(
                            SimJob::new(sessions[t], context, stim)
                                .with_tenant(format!("tenant-{t}")),
                        )
                        .expect("sim accepted")
                        .map(|o| o.into_sim().expect("sim outcome").outputs)
                })
                .collect();
            for (t, handle) in handles.into_iter().enumerate() {
                let out = loop {
                    if let Some(done) = handle.wait_timeout(Duration::from_millis(200)) {
                        break done.expect("sim completes");
                    }
                };
                outputs[t].push(out);
            }
            // Continuous checkpointing: after every completed round each
            // session's latest state lands in the router's snapshot store —
            // the recovery points a kill falls back to.
            for &id in &sessions {
                let snap = router.checkpoint(id).expect("checkpoint");
                stats.snapshot_bytes += snap.serialized_bytes() as u64;
                stats.snapshots += 1;
            }

            if kill && job + 1 == cut_at {
                // Live-migration bounce: every session hops to the next
                // shard, then rebalance sends each home. One round only, so
                // shard caches stay partially cold and the post-kill
                // recovery below still exercises the recompile path.
                for id in sessions.iter_mut() {
                    let owner = router.session_owner(*id).expect("session alive");
                    let m = router
                        .migrate_session(*id, (owner + 2) % shards)
                        .expect("migrates");
                    stats.migrate_us.push(m.migrate_us);
                    *id = m.new_session;
                }
                for m in router.rebalance().expect("rebalances") {
                    stats.migrate_us.push(m.migrate_us);
                    if let Some(id) = sessions.iter_mut().find(|id| **id == m.session) {
                        *id = m.new_session;
                    }
                }
                // Migration re-keys the snapshot store; refresh every
                // recovery point before pulling the plug.
                router.checkpoint_all();

                // Kill the shard owning the most sessions, then restore its
                // sessions onto the survivors from the checkpoint store.
                let mut load = vec![0usize; shards];
                for &id in &sessions {
                    load[router.session_owner(id).expect("session alive")] += 1;
                }
                let victim = (0..shards).max_by_key(|&i| load[i]).expect("non-empty");
                let lost = router.kill_shard(victim).expect("kill");
                stats.killed_shard = Some(victim);
                stats.sessions_on_killed = lost.len();
                let recovered = router.recover().expect("recover");
                stats.sessions_recovered = recovered.len();
                for (old, new) in &recovered {
                    if let Some(id) = sessions.iter_mut().find(|id| **id == *old) {
                        *id = *new;
                    }
                }
                stats.sessions_lost = lost
                    .iter()
                    .filter(|l| !recovered.iter().any(|(old, _)| old == *l))
                    .count();
            }
        }
        stats.n_sessions_end = router.n_sessions();
        (outputs, stats)
    };

    let ref_rec = Recorder::enabled();
    let (reference, _) = run_workload(false, &ref_rec);

    let rec = Recorder::enabled();
    let wall = std::time::Instant::now();
    let (served, stats) = run_workload(true, &rec);
    let wall_ms = wall.elapsed().as_millis() as u64;

    // Ground truth: each tenant's script replayed on a private device must
    // match the unkilled reference run.
    let mut reference_divergences = 0u64;
    for (t, tenant_outputs) in reference.iter().enumerate() {
        let mut device =
            MultiDevice::compile_opts(&arch, &designs[t], &opts, &Recorder::disabled())
                .expect("reference compile");
        for (job, job_outputs) in tenant_outputs.iter().enumerate() {
            let context = job % device.n_contexts();
            device.try_switch_context(context).expect("context");
            let n_in = device.kernel(context).expect("context").n_inputs();
            for (cycle, out_words) in job_outputs.iter().enumerate() {
                let words: Vec<u64> = (0..n_in).map(|i| stim_word(t, job, cycle, i)).collect();
                let expected = device.try_step_batch(&words).expect("reference step");
                if &expected != out_words {
                    reference_divergences += 1;
                }
            }
        }
    }
    assert_eq!(
        reference_divergences, 0,
        "unkilled reference diverged from the private replay"
    );

    // The failure-injected run vs the unkilled reference, word for word.
    let mut divergences = 0u64;
    let mut words_compared = 0u64;
    for t in 0..tenants {
        assert_eq!(served[t].len(), reference[t].len(), "job count per tenant");
        for (job_served, job_ref) in served[t].iter().zip(&reference[t]) {
            for (cycle_served, cycle_ref) in job_served.iter().zip(job_ref) {
                words_compared += cycle_ref.len() as u64;
                if cycle_served != cycle_ref {
                    divergences += 1;
                }
            }
        }
    }

    let killed_shard = stats.killed_shard.expect("killed run killed a shard");
    let conserved = stats.sessions_lost == 0
        && stats.sessions_recovered == stats.sessions_on_killed
        && stats.n_sessions_end == tenants;
    assert_eq!(
        divergences, 0,
        "killed run diverged from unkilled reference"
    );
    assert!(conserved, "sessions were lost across the kill");

    let mut mus = stats.migrate_us.clone();
    mus.sort_unstable();
    let pick = |q: f64| -> u64 {
        if mus.is_empty() {
            0
        } else {
            mus[((mus.len() - 1) as f64 * q).round() as usize]
        }
    };
    let migrate_p50_us = pick(0.50);
    let migrate_p99_us = pick(0.99);

    let restores = rec.counter("shard.restores");
    let restore_recompiles = rec.counter("shard.restore.recompiles");
    let recompile_on_restore_rate = if restores == 0 {
        0.0
    } else {
        restore_recompiles as f64 / restores as f64
    };
    let snapshot_bytes_mean = if stats.snapshots == 0 {
        0.0
    } else {
        stats.snapshot_bytes as f64 / stats.snapshots as f64
    };

    println!(
        "workload: {tenants} tenants x {jobs_per_tenant} jobs x {words_per_job} words \
         across {shards} shards, kill after round {cut_at}"
    );
    println!(
        "placement: {:?} sessions per shard at compile time",
        stats.initial_placement
    );
    println!(
        "migrations: {} (p50 {migrate_p50_us} us, p99 {migrate_p99_us} us, \
         {} destination recompiles)",
        stats.migrate_us.len(),
        rec.counter("shard.migrate.recompiles"),
    );
    println!(
        "kill: shard {killed_shard} with {} sessions; recovered {} \
         ({restores} restores, {restore_recompiles} recompiles), lost {}",
        stats.sessions_on_killed, stats.sessions_recovered, stats.sessions_lost,
    );
    println!(
        "identity: {divergences} divergences over {words_compared} words vs unkilled reference"
    );

    let bench = ShardBench {
        experiment: "shard".into(),
        shards,
        tenants,
        jobs_per_tenant,
        words_per_job,
        initial_sessions_per_shard: stats.initial_placement.clone(),
        migrations: rec.counter("shard.migrations"),
        migrate_p50_us,
        migrate_p99_us,
        migrate_recompiles: rec.counter("shard.migrate.recompiles"),
        killed_shard,
        sessions_on_killed: stats.sessions_on_killed,
        sessions_recovered: stats.sessions_recovered,
        sessions_lost: stats.sessions_lost,
        restores,
        restore_recompiles,
        recompile_on_restore_rate,
        checkpoints: rec.counter("shard.checkpoints"),
        snapshot_bytes_mean,
        divergences,
        words_compared,
        conserved,
        wall_ms,
        report: rec.report("shard"),
    };
    gate::write(&bench);
}

/// Machine-readable record of the scale-out serving experiment
/// (`BENCH_shard.json`).
#[derive(Serialize, Deserialize)]
pub(crate) struct ShardBench {
    experiment: String,
    shards: usize,
    tenants: usize,
    jobs_per_tenant: usize,
    words_per_job: usize,
    /// Rendezvous placement of the tenants' sessions right after compile.
    initial_sessions_per_shard: Vec<usize>,
    /// Live migrations performed (bounce rounds + rebalance).
    migrations: u64,
    migrate_p50_us: u64,
    /// Checkpoint → restore → close wall time, 99th percentile (gated
    /// against baseline x blowup).
    migrate_p99_us: u64,
    /// Migrations whose destination shard had to compile the design.
    migrate_recompiles: u64,
    killed_shard: usize,
    sessions_on_killed: usize,
    /// Gated == sessions_on_killed.
    sessions_recovered: usize,
    /// Gated at 0.
    sessions_lost: usize,
    /// Session restores performed by post-kill recovery.
    restores: u64,
    restore_recompiles: u64,
    /// restore_recompiles / restores (0 when no restores): how often a
    /// survivor's cache missed a recovered session's design.
    recompile_on_restore_rate: f64,
    checkpoints: u64,
    snapshot_bytes_mean: f64,
    /// Stimulus cycles served by the killed run differing from the unkilled
    /// reference (gated at 0).
    divergences: u64,
    words_compared: u64,
    /// Lost == 0, recovered == on-killed count, all sessions alive at end.
    conserved: bool,
    wall_ms: u64,
    /// Full span/metric report of the failure-injected run's recorder.
    report: RunReport,
}

/// The shard experiment's `BENCH_baseline.json` section.
#[derive(Deserialize)]
pub(crate) struct Baseline {
    migrate_p99_us: u64,
}

impl Report for ShardBench {
    const FILE: &'static str = "BENCH_shard.json";
    type Baseline = Baseline;

    fn check(&self, base: &Baseline) -> Vec<Violation> {
        let mut c = Checks::new(Self::FILE);
        // The kill must cost live sessions, every one of them comes back,
        // and the killed run matches the unkilled reference word for word.
        check!(c.ge(self.sessions_on_killed, 1));
        check!(c.eq(self.sessions_recovered, self.sessions_on_killed));
        check!(c.eq(self.sessions_lost, 0));
        check!(c.eq(self.divergences, 0));
        check!(c.eq(self.conserved, true));
        check!(c.no_blowup(self, base): migrate_p99_us);
        check!(c.positive(self): shards tenants jobs_per_tenant words_per_job migrations
            migrate_p50_us migrate_p99_us restores checkpoints snapshot_bytes_mean words_compared);
        let rate = self.recompile_on_restore_rate;
        let ok = (0.0..=1.0).contains(&rate);
        c.ensure(ok, "recompile_on_restore_rate", rate, "in [0, 1]");
        // Placement covers the whole front end and conserves the tenants.
        let placed = &self.initial_sessions_per_shard;
        c.eq(
            "initial_sessions_per_shard.len()",
            placed.len(),
            self.shards,
        );
        let total = placed.iter().map(|&n| n as u128).sum();
        c.eq(
            "initial_sessions_per_shard.sum()",
            total,
            self.tenants as u128,
        );
        for name in [
            "checkpoints",
            "migrations",
            "kills",
            "restores",
            "sessions_recovered",
        ] {
            let name = format!("shard.{name}");
            c.positive(
                &format!("report.counters[{name}]"),
                self.report.counter(&name),
            );
        }
        c.done()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gate::testing::{baseline, breaks_one, load_failures, run_report};

    /// A kill that cost two sessions, both recovered word-exactly.
    pub(crate) fn passing() -> (ShardBench, Baseline) {
        let report = ShardBench {
            experiment: "shard".into(),
            shards: 3,
            tenants: 6,
            jobs_per_tenant: 8,
            words_per_job: 32,
            initial_sessions_per_shard: vec![2, 2, 2],
            migrations: 12,
            migrate_p50_us: 1_000,
            migrate_p99_us: 3_000,
            migrate_recompiles: 6,
            killed_shard: 0,
            sessions_on_killed: 2,
            sessions_recovered: 2,
            sessions_lost: 0,
            restores: 2,
            restore_recompiles: 2,
            recompile_on_restore_rate: 1.0,
            checkpoints: 48,
            snapshot_bytes_mean: 500.0,
            divergences: 0,
            words_compared: 9_728,
            conserved: true,
            wall_ms: 100,
            report: run_report(
                &[],
                &[
                    "shard.checkpoints",
                    "shard.migrations",
                    "shard.kills",
                    "shard.restores",
                    "shard.sessions_recovered",
                ],
                &[],
            ),
        };
        (report, baseline("shard"))
    }

    #[test]
    fn each_broken_invariant_is_one_violation() {
        breaks_one(
            passing,
            &[
                ("sessions_on_killed", |r, _| {
                    r.sessions_on_killed = 0;
                    r.sessions_recovered = 0;
                }),
                ("sessions_recovered", |r, _| r.sessions_recovered = 1),
                ("sessions_lost", |r, _| r.sessions_lost = 1),
                ("divergences", |r, _| r.divergences = 1),
                ("conserved", |r, _| r.conserved = false),
                ("migrate_p99_us", |r, b| {
                    r.migrate_p99_us = 21 * b.migrate_p99_us
                }),
                ("migrations", |r, _| r.migrations = 0),
                ("migrate_p50_us", |r, _| r.migrate_p50_us = 0),
                ("snapshot_bytes_mean", |r, _| r.snapshot_bytes_mean = 0.0),
                ("words_compared", |r, _| r.words_compared = 0),
                ("recompile_on_restore_rate", |r, _| {
                    r.recompile_on_restore_rate = 1.5
                }),
                ("initial_sessions_per_shard.len()", |r, _| {
                    r.initial_sessions_per_shard.push(0)
                }),
                ("initial_sessions_per_shard.sum()", |r, _| {
                    r.initial_sessions_per_shard[0] += 1
                }),
                ("report.counters[shard.kills]", |r, _| {
                    r.report.counters.remove(2);
                }),
            ],
        );
    }

    #[test]
    fn unreadable_reports_are_violations() {
        load_failures(passing, "sessions_lost");
    }
}
