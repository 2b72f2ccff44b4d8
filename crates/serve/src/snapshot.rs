//! Live health snapshots and the rolling latency windows that feed them.
//!
//! [`crate::Server::snapshot`] assembles a [`HealthSnapshot`] from counters
//! the hot paths already maintain — atomic queue depth mirror, busy-worker
//! count, per-tenant inflight gauges, and [`RollingLatency`] windows whose
//! p99 is cached and refreshed only every few records. Reading a snapshot
//! never touches the job queue lock, so it is cheap enough to consult on
//! every submission (the admission path does exactly that).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// One tenant's in-flight gauge inside a [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantInflight {
    pub tenant: String,
    pub inflight: u64,
}

/// A point-in-time view of server health, built without blocking the
/// serving paths. All latency figures are rolling-window estimates over
/// the most recent jobs, not lifetime aggregates — that is what makes them
/// useful as overload signals (a lifetime p99 barely moves once the sample
/// count is large).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Jobs queued right now.
    pub queue_depth: usize,
    /// Hard queue bound.
    pub queue_capacity: usize,
    /// Deepest the queue has ever been.
    pub queue_depth_hwm: usize,
    /// Accepted jobs not yet finished, summed over tenants.
    pub inflight: u64,
    /// Worker threads serving this queue.
    pub workers: usize,
    /// Workers currently servicing a job.
    pub busy_workers: usize,
    /// `busy_workers / workers` (0 when no workers).
    pub worker_utilization: f64,
    /// Open sim sessions.
    pub sessions: usize,
    /// Designs resident in the compile cache.
    pub cached_designs: usize,
    /// Rolling-window p99 of queue wait, microseconds.
    pub rolling_wait_p99_us: f64,
    /// Rolling-window p99 of service time, microseconds.
    pub rolling_service_p99_us: f64,
    /// Lifetime admission-policy sheds, summed over the tenant ledgers.
    pub jobs_shed: u64,
    /// Lifetime `QueueFull` and `Shutdown` refusals. Malformed submissions
    /// are not counted here, though the tenant ledger files them under
    /// `rejected` too.
    pub jobs_rejected: u64,
    /// Trace events evicted from the ring so far.
    pub trace_dropped: u64,
    /// Per-tenant in-flight gauges, label-ordered.
    pub tenant_inflight: Vec<TenantInflight>,
}

/// Over how many recent samples the rolling p99 is computed.
pub(crate) const ROLLING_WINDOW: usize = 512;
/// Recompute the cached p99 every this many records.
const REFRESH_EVERY: u64 = 32;

/// A bounded ring of recent latency samples with a cached p99.
///
/// `record` is a short lock push plus, once every [`REFRESH_EVERY`]
/// records, an `O(window log window)` refresh; `p99` is a single atomic
/// load. The cache makes the admission path read stale-by-at-most-31
/// -samples data instead of sorting 512 floats per submission.
#[derive(Debug)]
pub(crate) struct RollingLatency {
    window: Mutex<VecDeque<f64>>,
    records: AtomicU64,
    /// f64 bits of the cached p99.
    cached_p99: AtomicU64,
}

impl Default for RollingLatency {
    fn default() -> RollingLatency {
        RollingLatency {
            window: Mutex::new(VecDeque::with_capacity(ROLLING_WINDOW)),
            records: AtomicU64::new(0),
            cached_p99: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

impl RollingLatency {
    pub fn record(&self, v: f64) {
        let mut window = self.window.lock().unwrap();
        if window.len() == ROLLING_WINDOW {
            window.pop_front();
        }
        window.push_back(v);
        let n = self.records.fetch_add(1, Ordering::Relaxed) + 1;
        if n % REFRESH_EVERY == 1 {
            // First record and every 32nd after: refresh while the lock is
            // already held.
            let p99 = Self::compute_p99(&window);
            self.cached_p99.store(p99.to_bits(), Ordering::Relaxed);
        }
    }

    /// The cached rolling p99 (0 until the first record).
    pub fn p99(&self) -> f64 {
        f64::from_bits(self.cached_p99.load(Ordering::Relaxed))
    }

    /// Recompute from the live window, bypassing the cache. Used by
    /// snapshots so a freshly idle server reports current tails.
    pub fn p99_fresh(&self) -> f64 {
        let window = self.window.lock().unwrap();
        Self::compute_p99(&window)
    }

    fn compute_p99(window: &VecDeque<f64>) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = window.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_p99_tracks_recent_samples_only() {
        let r = RollingLatency::default();
        assert_eq!(r.p99(), 0.0);
        for _ in 0..ROLLING_WINDOW {
            r.record(10.0);
        }
        assert_eq!(r.p99_fresh(), 10.0);
        // A flood of slow samples displaces the old regime entirely.
        for _ in 0..ROLLING_WINDOW {
            r.record(5_000.0);
        }
        assert_eq!(r.p99_fresh(), 5_000.0);
        // The cached value is refreshed periodically, so after a full
        // window of records it has certainly caught up.
        assert_eq!(r.p99(), 5_000.0);
    }

    #[test]
    fn p99_rank_picks_the_tail_sample() {
        let r = RollingLatency::default();
        for v in 1..=100 {
            r.record(v as f64);
        }
        assert_eq!(r.p99_fresh(), 99.0);
    }
}
