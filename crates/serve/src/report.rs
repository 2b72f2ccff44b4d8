//! The serving layer's machine-readable telemetry snapshot.

use mcfpga_obs::{HistogramEntry, Recorder};
use serde::{Deserialize, Serialize};

use crate::tenant::TenantReport;

/// Snapshot of a server's counters and latency histograms, in the shape
/// `experiments serve` embeds into `BENCH_serve.json`.
/// [`ServeReport::from_recorder`] reads every field but `tenants` from the
/// `mcfpga-obs` recorder the server streams into. [`crate::Server::report`]
/// then sets, from the server's own ledger, which it keeps whether or not
/// the recorder is enabled:
/// - the job outcomes `jobs_submitted` (accepted: the tenants' summed
///   attempts less their refusals and sheds), `jobs_completed`,
///   `jobs_failed` and `jobs_expired`, and the lookups `cache_hits` and
///   `cache_misses`, summed over the tenant rows;
/// - the refusals `jobs_rejected`, `jobs_malformed` (the tenants' summed
///   `rejected` less the server's QueueFull/Shutdown count), `jobs_shed`,
///   `shed_queue_watermark` and `shed_tenant_inflight`, which
///   [`crate::Server::snapshot`] reads too;
/// - `queue_depth_hwm` and `tenants`.
///
/// The rest needs an enabled recorder and reads 0 (or `None`) without
/// one: `jobs_expired_in_service`, `cache_near_hits`,
/// `delta_contexts_reused`, `cache_evictions`, `checkpoints`, `restores`,
/// `restore_recompiles`, `trace_dropped`, `wait_us` and `service_us`.
///
/// Outcome conservation: every submission attempt terminates as exactly one
/// of completed / failed / expired / rejected / shed (or is still in
/// flight), both globally and inside each [`TenantReport`]'s stats.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs serviced to a successful outcome.
    pub jobs_completed: u64,
    /// Jobs serviced to an error (compile/sim failure, unknown session).
    pub jobs_failed: u64,
    /// Jobs whose deadline elapsed while queued; never serviced.
    pub jobs_expired: u64,
    /// Jobs whose deadline elapsed *mid-service*, caught between
    /// per-context compile phases and completed with `ServeError::Deadline`.
    /// These consumed worker time, so they are also counted in
    /// `jobs_failed` (and the tenant's `failed` bucket) — this counter is a
    /// breakdown, not a new conservation bucket.
    pub jobs_expired_in_service: u64,
    /// Submissions refused with `QueueFull` backpressure or `Shutdown`.
    pub jobs_rejected: u64,
    /// Submissions shed by an admission limit (`serve.shed.total`):
    /// `shed_queue_watermark + shed_tenant_inflight`.
    pub jobs_shed: u64,
    /// Sheds caused by the queue-depth watermark.
    pub shed_queue_watermark: u64,
    /// Sheds caused by a per-tenant in-flight cap.
    pub shed_tenant_inflight: u64,
    /// Design lookups by compile and restore jobs answered from the cache.
    pub cache_hits: u64,
    /// Design lookups by compile and restore jobs that had to compile.
    pub cache_misses: u64,
    /// Exact-miss lookups that found a near-match base (same arch/route
    /// options, overlapping contexts) and ran the delta path instead of a
    /// cold compile. A subset of `cache_misses`.
    pub cache_near_hits: u64,
    /// Context compiles skipped across all delta compiles: contexts whose
    /// netlist hash matched the near-match base and were reused verbatim.
    pub delta_contexts_reused: u64,
    /// Designs evicted by LRU pressure.
    pub cache_evictions: u64,
    /// Submissions refused at the door as structurally invalid
    /// (`serve.jobs_malformed`) — counted into the submitting tenant's
    /// `rejected` bucket, so conservation still holds.
    pub jobs_malformed: u64,
    /// Session checkpoints taken (`serve.checkpoints`), queued and
    /// synchronous alike.
    pub checkpoints: u64,
    /// Sessions restored from snapshots (`serve.restores`).
    pub restores: u64,
    /// Restores that missed the design cache and had to compile
    /// (`serve.restore.recompiles`). A subset of `restores`.
    pub restore_recompiles: u64,
    /// Deepest the submission queue has ever been.
    pub queue_depth_hwm: u64,
    /// Trace events evicted from the recorder's ring — nonzero means the
    /// trace (and anything reconstructed from it) is truncated.
    pub trace_dropped: u64,
    /// Queue-wait latency distribution (`serve.wait_us`), if any job ran.
    pub wait_us: Option<HistogramEntry>,
    /// Service latency distribution (`serve.service_us`), if any job ran.
    pub service_us: Option<HistogramEntry>,
    /// Per-tenant ledgers, label-ordered. Empty when built via
    /// [`ServeReport::from_recorder`] (the recorder holds no tenant table);
    /// [`crate::Server::report`] fills it.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// Condense the `serve.*` metrics out of `rec`. Tenant rows are only
    /// known to a live server — [`crate::Server::report`] adds them.
    pub fn from_recorder(rec: &Recorder) -> ServeReport {
        let report = rec.report("serve");
        ServeReport {
            jobs_submitted: report.counter("serve.jobs_submitted"),
            jobs_completed: report.counter("serve.jobs_completed"),
            jobs_failed: report.counter("serve.jobs_failed"),
            jobs_expired: report.counter("serve.jobs_expired"),
            jobs_expired_in_service: report.counter("serve.jobs_expired_in_service"),
            jobs_rejected: report.counter("serve.jobs_rejected"),
            jobs_shed: report.counter("serve.shed.total"),
            shed_queue_watermark: report.counter("serve.shed.queue_watermark"),
            shed_tenant_inflight: report.counter("serve.shed.tenant_inflight"),
            cache_hits: report.counter("serve.cache_hits"),
            cache_misses: report.counter("serve.cache_misses"),
            cache_near_hits: report.counter("serve.cache.near_hit"),
            delta_contexts_reused: report.counter("serve.delta.contexts_reused"),
            cache_evictions: report.counter("serve.cache_evictions"),
            jobs_malformed: report.counter("serve.jobs_malformed"),
            checkpoints: report.counter("serve.checkpoints"),
            restores: report.counter("serve.restores"),
            restore_recompiles: report.counter("serve.restore.recompiles"),
            queue_depth_hwm: report.gauge("serve.queue_depth_hwm").unwrap_or(0.0) as u64,
            trace_dropped: rec.trace_dropped(),
            wait_us: report.histogram("serve.wait_us").cloned(),
            service_us: report.histogram("serve.service_us").cloned(),
            tenants: Vec::new(),
        }
    }
}
