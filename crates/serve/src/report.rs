//! The serving layer's machine-readable telemetry snapshot.

use mcfpga_obs::{HistogramEntry, Recorder};
use serde::{Deserialize, Serialize};

use crate::tenant::TenantReport;

/// Snapshot of a server's counters and latency histograms, in the shape
/// `experiments serve` embeds into `BENCH_serve.json`.
/// [`crate::Server::report`] reads every field from the server's ledger,
/// which it keeps whether or not its recorder is enabled: each count, the
/// queue-wait and service distributions (merged over the tenant rows) and
/// the tenant rows themselves, plus `queue_depth_hwm` from its queue. Only
/// `trace_dropped` comes from the recorder.
///
/// Outcome conservation: every submission attempt terminates as exactly one
/// of completed / failed / expired / rejected / shed (or is still in
/// flight), both globally and inside each [`TenantReport`]'s stats.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Condense the `serve.*` metrics out of `rec`, summed over every
    /// server that streams into it: what perfbench reads, and what a
    /// [`crate::ShardRouter`] built with a shared recorder reads for all
    /// its shards. Tenant rows are only known to a live server, whose
    /// [`crate::Server::report`] reads its own ledger instead.
    pub fn from_recorder(rec: &Recorder) -> ServeReport {
        let report = rec.report("serve");
        let mut out = ServeReport {
            queue_depth_hwm: report.gauge("serve.queue_depth_hwm").unwrap_or(0.0) as u64,
            trace_dropped: rec.trace_dropped(),
            wait_us: report.histogram("serve.wait_us").cloned(),
            service_us: report.histogram("serve.service_us").cloned(),
            ..ServeReport::default()
        };
        for counter in &report.counters {
            if let Some(count) = out.count_mut(&counter.name) {
                *count = counter.value;
            }
        }
        out
    }

    /// The count field kept under the `serve.*` counter `name`, if any: the
    /// one name → field table [`ServeReport::from_recorder`] and the
    /// server's ledger both read.
    pub(crate) fn count_mut(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "serve.jobs_submitted" => &mut self.jobs_submitted,
            "serve.jobs_completed" => &mut self.jobs_completed,
            "serve.jobs_failed" => &mut self.jobs_failed,
            "serve.jobs_expired" => &mut self.jobs_expired,
            "serve.jobs_expired_in_service" => &mut self.jobs_expired_in_service,
            "serve.jobs_rejected" => &mut self.jobs_rejected,
            "serve.shed.total" => &mut self.jobs_shed,
            "serve.shed.queue_watermark" => &mut self.shed_queue_watermark,
            "serve.shed.tenant_inflight" => &mut self.shed_tenant_inflight,
            "serve.cache_hits" => &mut self.cache_hits,
            "serve.cache_misses" => &mut self.cache_misses,
            "serve.cache.near_hit" => &mut self.cache_near_hits,
            "serve.delta.contexts_reused" => &mut self.delta_contexts_reused,
            "serve.cache_evictions" => &mut self.cache_evictions,
            "serve.jobs_malformed" => &mut self.jobs_malformed,
            "serve.checkpoints" => &mut self.checkpoints,
            "serve.restores" => &mut self.restores,
            "serve.restore.recompiles" => &mut self.restore_recompiles,
            _ => return None,
        })
    }
}
