//! Per-tenant accounting: every submission attempt lands in exactly one
//! terminal bucket of its tenant's [`TenantStats`], so the table is a
//! conservation ledger — `submitted == completed + failed + expired +
//! rejected + shed + inflight` holds at every instant the table lock is
//! released.
//!
//! The table is keyed by the tenant label jobs carry (see
//! [`crate::CompileJob::with_tenant`]); unlabeled jobs are charged to
//! [`DEFAULT_TENANT`]. Alongside the exact counters each tenant keeps
//! bounded-memory latency histograms (queue wait and service time), so a
//! noisy-neighbor investigation can compare tail latency per tenant without
//! replaying traces.

use std::collections::BTreeMap;
use std::sync::Mutex;

use mcfpga_obs::{HistogramEntry, LogHistogram};
use serde::{Deserialize, Serialize};

use crate::admission::JobKind;

/// Tenant label charged when a job was submitted without one.
pub const DEFAULT_TENANT: &str = "default";

/// Exact per-tenant counters. Every submission attempt increments
/// `submitted` and then exactly one of the terminal counters (or stays in
/// `inflight` until serviced), so [`TenantStats::is_conserved`] holds
/// whenever the server is drained.
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
    /// Submissions refused by the admission policy.
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

/// The server's tenant ledger. All mutation happens through the `on_*`
/// hooks the server calls at state transitions; each hook takes the table
/// lock once. Never hold this lock while taking the queue lock (the server
/// orders queue → tenants).
#[derive(Debug, Default)]
pub(crate) struct TenantTable {
    accounts: Mutex<BTreeMap<String, TenantAccount>>,
}

impl TenantTable {
    fn with<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantAccount) -> R) -> R {
        let mut accounts = self.accounts.lock().unwrap();
        f(accounts.entry(tenant.to_string()).or_default())
    }

    /// A submission attempt arrived (before any accept/refuse decision).
    pub fn on_submitted(&self, tenant: &str) {
        self.with(tenant, |a| a.stats.submitted += 1);
    }

    /// The attempt was refused by hard backpressure or shutdown.
    pub fn on_rejected(&self, tenant: &str) {
        self.with(tenant, |a| a.stats.rejected += 1);
    }

    /// The attempt was refused by the admission policy.
    pub fn on_shed(&self, tenant: &str) {
        self.with(tenant, |a| a.stats.shed += 1);
    }

    /// The job was enqueued; it is now in flight.
    pub fn on_accepted(&self, tenant: &str, kind: JobKind) {
        self.with(tenant, |a| {
            a.stats.inflight += 1;
            match kind {
                JobKind::Compile => a.stats.compile_jobs += 1,
                JobKind::Sim => a.stats.sim_jobs += 1,
                JobKind::Checkpoint => a.stats.checkpoint_jobs += 1,
                JobKind::Restore => a.stats.restore_jobs += 1,
            }
        });
    }

    /// The job's deadline elapsed while queued.
    pub fn on_expired(&self, tenant: &str, wait_us: u64) {
        self.with(tenant, |a| {
            a.stats.inflight = a.stats.inflight.saturating_sub(1);
            a.stats.expired += 1;
            a.stats.wait_us_total += wait_us;
            a.wait.record(wait_us as f64);
        });
    }

    /// A compile or restore job looked its design up in the cache.
    pub fn on_cache(&self, tenant: &str, hit: bool) {
        self.with(tenant, |a| {
            if hit {
                a.stats.cache_hits += 1;
            } else {
                a.stats.cache_misses += 1;
            }
        });
    }

    /// A sim job consumed lane-cycles.
    pub fn on_sim_cycles(&self, tenant: &str, cycles: u64) {
        self.with(tenant, |a| a.stats.sim_cycles += cycles);
    }

    /// The job finished service (successfully or not).
    pub fn on_finished(
        &self,
        tenant: &str,
        kind: JobKind,
        ok: bool,
        wait_us: u64,
        service_us: u64,
    ) {
        self.with(tenant, |a| {
            a.stats.inflight = a.stats.inflight.saturating_sub(1);
            if ok {
                a.stats.completed += 1;
            } else {
                a.stats.failed += 1;
            }
            a.stats.wait_us_total += wait_us;
            match kind {
                JobKind::Compile => a.stats.compile_service_us += service_us,
                JobKind::Sim => a.stats.sim_service_us += service_us,
                JobKind::Checkpoint | JobKind::Restore => a.stats.ctrl_service_us += service_us,
            }
            a.wait.record(wait_us as f64);
            a.service.record(service_us as f64);
        });
    }

    /// The tenant's accepted-but-unfinished job count right now.
    pub fn inflight(&self, tenant: &str) -> u64 {
        let accounts = self.accounts.lock().unwrap();
        accounts.get(tenant).map_or(0, |a| a.stats.inflight)
    }

    /// Snapshot one tenant's exact counters (`None` if never seen).
    pub fn stats(&self, tenant: &str) -> Option<TenantStats> {
        let accounts = self.accounts.lock().unwrap();
        accounts.get(tenant).map(|a| a.stats.clone())
    }

    /// Every tenant's `(label, inflight)` pair, label-ordered.
    pub fn inflight_all(&self) -> Vec<(String, u64)> {
        let accounts = self.accounts.lock().unwrap();
        accounts
            .iter()
            .map(|(t, a)| (t.clone(), a.stats.inflight))
            .collect()
    }

    /// Admission-policy sheds summed over every tenant.
    pub fn shed_total(&self) -> u64 {
        let accounts = self.accounts.lock().unwrap();
        accounts.values().map(|a| a.stats.shed).sum()
    }

    /// Condense every tenant into report rows, label-ordered.
    pub fn reports(&self) -> Vec<TenantReport> {
        let accounts = self.accounts.lock().unwrap();
        accounts
            .iter()
            .map(|(tenant, a)| TenantReport {
                tenant: tenant.clone(),
                stats: a.stats.clone(),
                wait_us: (!a.wait.is_empty()).then(|| a.wait.entry("wait_us")),
                service_us: (!a.service.is_empty()).then(|| a.service.entry("service_us")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_conserves_every_attempt() {
        let table = TenantTable::default();
        let t = "acme";
        // Two accepted (one completes, one fails), one expired, one
        // rejected, one shed.
        for _ in 0..5 {
            table.on_submitted(t);
        }
        table.on_accepted(t, JobKind::Compile);
        table.on_accepted(t, JobKind::Sim);
        table.on_accepted(t, JobKind::Sim);
        table.on_submitted(t); // sixth attempt: accepted, stays inflight
        table.on_accepted(t, JobKind::Sim);
        table.on_rejected(t);
        table.on_shed(t);
        table.on_expired(t, 700);
        table.on_cache(t, true);
        table.on_finished(t, JobKind::Compile, true, 100, 2_000);
        table.on_sim_cycles(t, 64 * 256);
        table.on_finished(t, JobKind::Sim, false, 50, 900);

        let s = table.stats(t).expect("tenant exists");
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
        assert_eq!(table.inflight(t), 1);

        let rows = table.reports();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tenant, t);
        let wait = rows[0].wait_us.as_ref().expect("waits recorded");
        assert_eq!(wait.count, 3);
        let service = rows[0].service_us.as_ref().expect("services recorded");
        assert_eq!(service.count, 2);
    }

    #[test]
    fn unknown_tenant_reads_empty() {
        let table = TenantTable::default();
        assert_eq!(table.inflight("ghost"), 0);
        assert!(table.stats("ghost").is_none());
        assert!(table.reports().is_empty());
    }
}
