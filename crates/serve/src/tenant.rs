//! The server's one ledger: per-tenant accounting and every server-wide
//! count, behind one lock. Every submission attempt lands, when it is
//! decided, in exactly one terminal bucket of its tenant's
//! [`TenantStats`], so the table is a conservation ledger — `submitted ==
//! completed + failed + expired + rejected + shed + inflight` holds at
//! every instant the ledger lock is released.
//!
//! The table is keyed by the tenant label jobs carry (see
//! [`crate::CompileJob::with_tenant`]); unlabeled jobs are charged to
//! [`DEFAULT_TENANT`]. Alongside the exact counters each tenant keeps
//! bounded-memory latency histograms (queue wait and service time), so a
//! noisy-neighbor investigation can compare tail latency per tenant without
//! replaying traces.
//!
//! Each `on_*` call records one job event: it charges the tenant row, adds
//! the server-wide counts under the `serve.*` names the recorder uses, and
//! forwards the same increments to the server's recorder. So
//! [`crate::Server::report`] reads the ledger alone, and the recorder's
//! counters are those the server always streamed.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mcfpga_obs::{HistogramEntry, LogHistogram, Recorder};
use mcfpga_sim::CompileError;
use serde::{Deserialize, Serialize};

use crate::admission::{JobKind, ShedReason};
use crate::report::ServeReport;
use crate::server::Built;
use crate::snapshot::TenantInflight;

/// Tenant label charged when a job was submitted without one.
pub const DEFAULT_TENANT: &str = "default";

/// Exact per-tenant counters. Every submission attempt increments
/// `submitted` and exactly one of the terminal counters (or `inflight`
/// until serviced) in the same step, so [`TenantStats::is_conserved`]
/// always holds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Submission attempts, including ones refused before enqueue.
    pub submitted: u64,
    /// Jobs serviced to a successful outcome.
    pub completed: u64,
    /// Jobs serviced to an error.
    pub failed: u64,
    /// Jobs whose deadline elapsed while queued.
    pub expired: u64,
    /// Submissions refused by hard backpressure (`QueueFull` / `Shutdown`).
    pub rejected: u64,
    /// Submissions shed by the queue watermark or the tenant in-flight cap.
    pub shed: u64,
    /// Accepted jobs not yet finished (queued or being serviced).
    pub inflight: u64,
    /// Accepted compile jobs.
    pub compile_jobs: u64,
    /// Accepted sim jobs.
    pub sim_jobs: u64,
    /// Accepted checkpoint jobs.
    pub checkpoint_jobs: u64,
    /// Accepted restore jobs.
    pub restore_jobs: u64,
    /// Total compile service time, microseconds.
    pub compile_service_us: u64,
    /// Total sim service time, microseconds.
    pub sim_service_us: u64,
    /// Total checkpoint/restore (session-control) service time,
    /// microseconds.
    pub ctrl_service_us: u64,
    /// Total queue wait across serviced and expired jobs, microseconds.
    pub wait_us_total: u64,
    /// Design lookups by compile and restore jobs answered from the cache.
    pub cache_hits: u64,
    /// Design lookups by compile and restore jobs that had to compile.
    pub cache_misses: u64,
    /// Simulated lane-cycles consumed (`words × 64 lanes`).
    pub sim_cycles: u64,
}

impl TenantStats {
    /// Attempts that have reached a terminal state or are in flight.
    pub fn accounted(&self) -> u64 {
        self.completed + self.failed + self.expired + self.rejected + self.shed + self.inflight
    }

    /// The conservation invariant: no attempt lost, none double-counted.
    pub fn is_conserved(&self) -> bool {
        self.submitted == self.accounted()
    }

    /// Hit rate over this tenant's design lookups by compile and restore jobs (0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// One tenant's condensed report row: exact counters plus latency
/// distribution summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    pub tenant: String,
    pub stats: TenantStats,
    /// Queue-wait distribution, `None` until a job was dequeued.
    pub wait_us: Option<HistogramEntry>,
    /// Service-time distribution, `None` until a job finished service.
    pub service_us: Option<HistogramEntry>,
}

/// Live accounting state for one tenant.
#[derive(Debug, Default)]
struct TenantAccount {
    stats: TenantStats,
    wait: LogHistogram,
    service: LogHistogram,
}

/// An increment of the `serve.*` counter it names.
type Count = (&'static str, u64);

/// The ledger's state: the tenant rows, and the server-wide counts in the
/// count fields of a report.
#[derive(Debug, Default)]
struct Book {
    accounts: BTreeMap<String, TenantAccount>,
    totals: ServeReport,
}

impl Book {
    fn account(&mut self, tenant: &str) -> &mut TenantAccount {
        self.accounts.entry(tenant.to_string()).or_default()
    }

    /// Charge one decided submission attempt to `tenant`.
    fn attempt(&mut self, tenant: &str) -> &mut TenantStats {
        let stats = &mut self.account(tenant).stats;
        stats.submitted += 1;
        stats
    }
}

/// The server's one ledger. All mutation happens through the `on_*` calls
/// the server makes at job events; each takes the ledger lock once. Never
/// hold this lock while taking the queue lock (the server orders queue →
/// ledger).
#[derive(Debug)]
pub(crate) struct Ledger {
    book: Mutex<Book>,
    rec: Recorder,
}

impl Ledger {
    /// An empty ledger forwarding its counts to `rec`.
    pub fn new(rec: Recorder) -> Ledger {
        let book = Mutex::default();
        Ledger { book, rec }
    }

    /// Under one lock: add `counts` to the server-wide totals, forward them
    /// to the recorder, and apply `charge` to the book.
    fn post(&self, counts: impl IntoIterator<Item = Count>, charge: impl FnOnce(&mut Book)) {
        let mut book = self.book.lock().expect("a ledger call panicked");
        for (name, by) in counts {
            if let Some(total) = book.totals.count_mut(name) {
                *total += by;
            }
            self.rec.incr(name, by);
        }
        charge(&mut book);
    }

    /// The attempt was refused by hard backpressure or shutdown.
    pub fn on_rejected(&self, tenant: &str) {
        let count = ("serve.jobs_rejected", 1);
        self.post([count], |b| b.attempt(tenant).rejected += 1);
    }

    /// The attempt was refused as malformed, into the tenant's `rejected`.
    pub fn on_malformed(&self, tenant: &str) {
        let count = ("serve.jobs_malformed", 1);
        self.post([count], |b| b.attempt(tenant).rejected += 1);
    }

    /// The attempt was shed by an admission limit.
    pub fn on_shed(&self, tenant: &str, reason: &ShedReason) {
        let counter = match reason {
            ShedReason::QueueWatermark { .. } => "serve.shed.queue_watermark",
            ShedReason::TenantInflight { .. } => "serve.shed.tenant_inflight",
        };
        let counts = [("serve.shed.total", 1), (counter, 1)];
        self.post(counts, |b| b.attempt(tenant).shed += 1);
    }

    /// The job was enqueued; it is now in flight.
    pub fn on_accepted(&self, tenant: &str, kind: JobKind) {
        self.post([("serve.jobs_submitted", 1)], |b| {
            let stats = b.attempt(tenant);
            stats.inflight += 1;
            *match kind {
                JobKind::Compile => &mut stats.compile_jobs,
                JobKind::Sim => &mut stats.sim_jobs,
                JobKind::Checkpoint => &mut stats.checkpoint_jobs,
                JobKind::Restore => &mut stats.restore_jobs,
            } += 1;
        });
    }

    /// The job's deadline elapsed while queued.
    pub fn on_expired(&self, tenant: &str, wait_us: u64) {
        self.post([("serve.jobs_expired", 1)], |b| {
            let a = b.account(tenant);
            a.stats.inflight = a.stats.inflight.saturating_sub(1);
            a.stats.expired += 1;
            a.stats.wait_us_total += wait_us;
            a.wait.record(wait_us as f64);
        });
    }

    /// A compile or restore job found its design in the cache.
    pub fn on_cache_hit(&self, tenant: &str) {
        let count = ("serve.cache_hits", 1);
        self.post([count], |b| b.account(tenant).stats.cache_hits += 1);
    }

    /// A compile or restore job missed the cache, and its compile ended as
    /// `built` says, seeded by a cached near match if `near_hit`.
    pub fn on_cache_miss(&self, tenant: &str, near_hit: bool, built: &Built) {
        let design = built.as_ref().ok();
        let reused = design.filter(|_| near_hit).map(|d| d.1.contexts_reused);
        let expired = matches!(built, Err(CompileError::DeadlineExceeded));
        let counts = [
            Some(("serve.cache_misses", 1)),
            near_hit.then_some(("serve.cache.near_hit", 1)),
            reused.map(|n| ("serve.delta.contexts_reused", n as u64)),
            design.map(|&(_, _, evicted)| ("serve.cache_evictions", evicted)),
            expired.then_some(("serve.jobs_expired_in_service", 1)),
        ];
        let counts = counts.into_iter().flatten();
        self.post(counts, |b| b.account(tenant).stats.cache_misses += 1);
    }

    /// A sim job consumed lane-cycles.
    pub fn on_sim_cycles(&self, tenant: &str, cycles: u64) {
        let count = ("serve.sim_cycles", cycles);
        self.post([count], |b| b.account(tenant).stats.sim_cycles += cycles);
    }

    /// The job finished service (successfully or not).
    pub fn on_finished(&self, tenant: &str, kind: JobKind, ok: bool, wait: u64, service: u64) {
        let counter = if ok {
            "serve.jobs_completed"
        } else {
            "serve.jobs_failed"
        };
        self.post([(counter, 1)], |b| {
            let a = b.account(tenant);
            a.stats.inflight = a.stats.inflight.saturating_sub(1);
            a.stats.completed += u64::from(ok);
            a.stats.failed += u64::from(!ok);
            a.stats.wait_us_total += wait;
            *match kind {
                JobKind::Compile => &mut a.stats.compile_service_us,
                JobKind::Sim => &mut a.stats.sim_service_us,
                JobKind::Checkpoint | JobKind::Restore => &mut a.stats.ctrl_service_us,
            } += service;
            a.wait.record(wait as f64);
            a.service.record(service as f64);
        });
    }

    /// A session was checkpointed, queued or synchronously.
    pub fn on_checkpoint(&self) {
        self.post([("serve.checkpoints", 1)], |_| ());
    }

    /// A session was restored; `recompiled` when its design missed the
    /// cache.
    pub fn on_restore(&self, recompiled: bool) {
        let recompile = recompiled.then_some(("serve.restore.recompiles", 1));
        let counts = [Some(("serve.restores", 1)), recompile];
        self.post(counts.into_iter().flatten(), |_| ());
    }

    /// Snapshot one tenant's exact counters (`None` if never seen).
    pub fn stats(&self, tenant: &str) -> Option<TenantStats> {
        let book = self.book.lock().expect("a ledger call panicked");
        book.accounts.get(tenant).map(|a| a.stats.clone())
    }

    /// What a health snapshot reads, in one cut: every tenant's in-flight
    /// count, label-ordered, and the server-wide `(shed, rejected)` counts.
    pub fn inflight_and_refusals(&self) -> (Vec<TenantInflight>, u64, u64) {
        let book = self.book.lock().expect("a ledger call panicked");
        let inflight = book.accounts.iter().map(|(tenant, a)| TenantInflight {
            tenant: tenant.clone(),
            inflight: a.stats.inflight,
        });
        let totals = &book.totals;
        (inflight.collect(), totals.jobs_shed, totals.jobs_rejected)
    }

    /// One cut of the ledger as a report: every count, the queue-wait and
    /// service distributions merged over the tenants (exact, since every
    /// sample is a whole number of microseconds), and the tenant rows,
    /// label-ordered. `queue_depth_hwm` and `trace_dropped` stay 0.
    pub fn report(&self) -> ServeReport {
        let book = self.book.lock().expect("a ledger call panicked");
        let (mut wait, mut service) = (LogHistogram::new(), LogHistogram::new());
        let entry = |h: &LogHistogram, name| (!h.is_empty()).then(|| h.entry(name));
        let tenants = book.accounts.iter().map(|(tenant, a)| {
            wait.merge(&a.wait);
            service.merge(&a.service);
            TenantReport {
                tenant: tenant.clone(),
                stats: a.stats.clone(),
                wait_us: entry(&a.wait, "wait_us"),
                service_us: entry(&a.service, "service_us"),
            }
        });
        let tenants = tenants.collect();
        ServeReport {
            wait_us: entry(&wait, "serve.wait_us"),
            service_us: entry(&service, "serve.service_us"),
            tenants,
            ..book.totals.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_conserves_every_attempt() {
        let ledger = Ledger::new(Recorder::disabled());
        let t = "acme";
        // Six attempts: four accepted (one completes, one fails, one
        // expires, one stays in flight), one rejected, one shed.
        ledger.on_accepted(t, JobKind::Compile);
        ledger.on_accepted(t, JobKind::Sim);
        ledger.on_accepted(t, JobKind::Sim);
        ledger.on_accepted(t, JobKind::Sim);
        ledger.on_rejected(t);
        let shed = ShedReason::TenantInflight {
            inflight: 3,
            cap: 3,
        };
        ledger.on_shed(t, &shed);
        ledger.on_expired(t, 700);
        ledger.on_cache_hit(t);
        ledger.on_finished(t, JobKind::Compile, true, 100, 2_000);
        ledger.on_sim_cycles(t, 64 * 256);
        ledger.on_finished(t, JobKind::Sim, false, 50, 900);

        let s = ledger.stats(t).expect("tenant exists");
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.expired, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.inflight, 1);
        assert!(s.is_conserved(), "conservation: {s:?}");
        assert_eq!(s.compile_jobs, 1);
        assert_eq!(s.sim_jobs, 3);
        assert_eq!(s.compile_service_us, 2_000);
        assert_eq!(s.sim_service_us, 900);
        assert_eq!(s.wait_us_total, 850);
        assert_eq!(s.cache_hit_rate(), 1.0);
        assert_eq!(s.sim_cycles, 64 * 256);
        assert_eq!(ledger.stats(t).map(|s| s.inflight), Some(1));

        let rows = ledger.report().tenants;
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant, t);
        let wait = rows[0].wait_us.as_ref().expect("waits recorded");
        assert_eq!(wait.count, 3);
        let service = rows[0].service_us.as_ref().expect("services recorded");
        assert_eq!(service.count, 2);
    }

    #[test]
    fn unknown_tenant_reads_empty() {
        let ledger = Ledger::new(Recorder::disabled());
        assert!(ledger.stats("ghost").is_none());
        assert!(ledger.report().tenants.is_empty());
    }
}
