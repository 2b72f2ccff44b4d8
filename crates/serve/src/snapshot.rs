//! Live health snapshots and the rolling latency windows that feed them.
//!
//! [`crate::Server::snapshot`] assembles a [`HealthSnapshot`] from counters
//! the hot paths already maintain — atomic queue depth mirror, busy-worker
//! count, refusal counts, per-tenant inflight gauges — plus the p99 of each
//! [`RollingLatency`] window, computed when the snapshot is taken. Reading
//! a snapshot never touches the job queue lock, so a health check can poll
//! it at any rate without stalling submissions.

use std::collections::VecDeque;
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
    /// Lifetime sheds by the queue watermark and the tenant in-flight cap
    /// (the counts [`crate::Server::report`] reads too).
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

/// A bounded ring of recent latency samples: `record` is a short lock push,
/// `p99` copies and sorts the window.
#[derive(Debug, Default)]
pub(crate) struct RollingLatency {
    window: Mutex<VecDeque<f64>>,
}

impl RollingLatency {
    pub fn record(&self, v: f64) {
        let mut window = self.window.lock().unwrap();
        if window.len() == ROLLING_WINDOW {
            window.pop_front();
        }
        window.push_back(v);
    }

    /// Nearest-rank p99 of the live window (0 until the first record).
    pub fn p99(&self) -> f64 {
        let mut sorted: Vec<f64> = self.window.lock().unwrap().iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        mcfpga_obs::percentile(&sorted, 99.0)
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
        assert_eq!(r.p99(), 10.0);
        // A flood of slow samples displaces the old regime entirely.
        for _ in 0..ROLLING_WINDOW {
            r.record(5_000.0);
        }
        assert_eq!(r.p99(), 5_000.0);
    }

    #[test]
    fn p99_rank_picks_the_tail_sample() {
        let r = RollingLatency::default();
        for v in 1..=100 {
            r.record(v as f64);
        }
        assert_eq!(r.p99(), 99.0);
    }
}
