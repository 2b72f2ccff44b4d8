//! Admission control: shed a submission *before* it is enqueued when one
//! of the two [`crate::ServeConfig`] limits is reached.
//!
//! The hard queue-capacity bound runs first: a full queue always rejects
//! with [`crate::SubmitError::QueueFull`]. A submission that would fit is
//! then shed when the queue is at [`crate::ServeConfig::queue_watermark`]
//! (checked first) or its tenant already has
//! [`crate::ServeConfig::tenant_inflight_cap`] jobs in flight. Both limits
//! are `None` by default, so a default server sheds nothing.
//!
//! Every shed is attributable: one ledger call counts it under
//! `serve.shed.total` and `serve.shed.<reason>` (read by
//! [`crate::Server::report`] and [`crate::Server::snapshot`], and forwarded
//! to the recorder) and charges the tenant's [`crate::TenantStats::shed`];
//! the server emits a correlated `job_shed` trace instant carrying the job
//! id, tenant, and reason — so an operator can reconstruct exactly which
//! tenant lost which jobs and why.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::config::ServeConfig;

/// Which kind of work a submission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    Compile,
    Sim,
    Checkpoint,
    Restore,
}

impl JobKind {
    /// Stable lowercase name, used in trace args and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Compile => "compile",
            JobKind::Sim => "sim",
            JobKind::Checkpoint => "checkpoint",
            JobKind::Restore => "restore",
        }
    }
}

/// Why a submission was shed. Carried in [`crate::SubmitError::Shed`] and
/// summarized per-reason in `serve.shed.*` counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// Queue depth reached the watermark (soft bound below the hard
    /// capacity).
    QueueWatermark { depth: usize, watermark: usize },
    /// The tenant already has its cap of in-flight jobs.
    TenantInflight { inflight: u64, cap: u64 },
}

impl ShedReason {
    /// Stable counter suffix: `serve.shed.<key>`.
    pub fn key(&self) -> &'static str {
        match self {
            ShedReason::QueueWatermark { .. } => "queue_watermark",
            ShedReason::TenantInflight { .. } => "tenant_inflight",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedReason::QueueWatermark { depth, watermark } => {
                write!(f, "queue depth {depth} at watermark {watermark}")
            }
            ShedReason::TenantInflight { inflight, cap } => {
                write!(f, "tenant has {inflight} jobs in flight (cap {cap})")
            }
        }
    }
}

/// Why `config` sheds a submission that arrives while `queue_depth` jobs
/// are queued and its tenant has `tenant_inflight` jobs in flight, or
/// `None` to admit it. The watermark is checked before the tenant cap.
pub(crate) fn shed_reason(
    config: &ServeConfig,
    queue_depth: usize,
    tenant_inflight: u64,
) -> Option<ShedReason> {
    if let Some(watermark) = config.queue_watermark {
        if queue_depth >= watermark {
            return Some(ShedReason::QueueWatermark {
                depth: queue_depth,
                watermark,
            });
        }
    }
    if let Some(cap) = config.tenant_inflight_cap {
        if tenant_inflight >= cap {
            return Some(ShedReason::TenantInflight {
                inflight: tenant_inflight,
                cap,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_admits_everything() {
        let cfg = ServeConfig::default();
        assert_eq!(shed_reason(&cfg, 63, 1_000_000), None);
    }

    #[test]
    fn watermark_sheds_at_and_above_the_line() {
        let cfg = ServeConfig::default().with_queue_watermark(4);
        assert_eq!(shed_reason(&cfg, 3, 0), None);
        match shed_reason(&cfg, 4, 0) {
            Some(
                r @ ShedReason::QueueWatermark {
                    depth: 4,
                    watermark: 4,
                },
            ) => {
                assert_eq!(r.key(), "queue_watermark");
            }
            other => panic!("expected watermark shed, got {other:?}"),
        }
        // A queue at its watermark and a tenant at its cap: the watermark
        // is checked first, so it names the shed.
        let both = cfg.with_tenant_inflight_cap(2);
        assert_eq!(
            shed_reason(&both, 4, 2),
            Some(ShedReason::QueueWatermark {
                depth: 4,
                watermark: 4,
            })
        );
    }

    #[test]
    fn inflight_cap_sheds_the_saturated_tenant_only() {
        let cfg = ServeConfig::default().with_tenant_inflight_cap(2);
        assert_eq!(shed_reason(&cfg, 0, 1), None);
        match shed_reason(&cfg, 0, 2) {
            Some(ShedReason::TenantInflight {
                inflight: 2,
                cap: 2,
            }) => {}
            other => panic!("expected inflight shed, got {other:?}"),
        }
    }
}
