//! Serializable session checkpoints — the context-extraction/restoration
//! protocol that makes sessions portable across servers.
//!
//! A [`SessionSnapshot`] is everything needed to resume a session with
//! bit-identical subsequent output on *any* server, including one that has
//! never seen the design:
//!
//! - the **full compile request** (architecture, per-context netlists,
//!   options), so restore can recompile on a cache miss — through the same
//!   delta/cold path a [`crate::CompileJob`] takes;
//! - the **per-context 64-lane register words** — the complete mutable
//!   state of the paper's multi-context execution model. The structured
//!   premise of the source paper (context state is small and register-only)
//!   is exactly what makes the snapshot cheap;
//! - the **session metadata**: tenant label, last active context, and
//!   cycle/lane-cycle counters, so accounting and scheduling survive the
//!   move.
//!
//! Format caveat: `design_key` / `switch_fp` are *per-build content
//! addresses* (see [`crate::DesignFingerprint`] stability notes). Restore
//! never trusts them across builds — it recomputes the fingerprint from the
//! carried request and re-keys through the design cache, recompiling when
//! the key is unknown. Within one build this makes restore bit-identical;
//! across builds it is correct-by-recompile ([`crate::RestoreOutcome`]
//! reports `refingerprinted` when the recorded key no longer matches).

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::Netlist;
use mcfpga_sim::CompileOptions;
use serde::{Deserialize, Serialize};

use crate::design::DesignFingerprint;
use crate::error::MalformedReason;

/// Snapshot-format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A serializable checkpoint of one session — see the module docs for the
/// restore contract. Produced by [`crate::Server::checkpoint_session`] (or a
/// queued [`crate::CheckpointJob`]), consumed by
/// [`crate::Server::restore_session`] / [`crate::RestoreJob`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot-format version ([`SNAPSHOT_VERSION`] when written by this
    /// build). Restore refuses other versions at submit time.
    pub version: u32,
    /// Raw id of the session this snapshot was taken from — bookkeeping
    /// only; restore always assigns a fresh [`crate::SessionId`].
    pub source_session: u64,
    /// The design's combined fingerprint key at checkpoint time. A
    /// per-build content address: a routing hint within one build, never
    /// trusted across builds (restore recomputes it from the request).
    pub design_key: u64,
    /// The compiled design's routing-switch fingerprint at checkpoint time
    /// — the bit-identity witness restore compares after resolving the
    /// design.
    pub switch_fp: u64,
    /// Architecture of the compile request.
    pub arch: ArchSpec,
    /// Per-context netlists of the compile request.
    pub circuits: Vec<Netlist>,
    /// Compile options of the request (`parallel` is carried but does not
    /// affect the artifact or the fingerprint).
    pub options: CompileOptions,
    /// Tenant the session belongs to; the restored session keeps it.
    pub tenant: String,
    /// Context the session last stepped (restored as-is).
    pub active_context: usize,
    /// Per-context register state: one `u64` word per register, one
    /// stimulus lane per bit — all 64·W lanes, verbatim.
    pub regs: Vec<Vec<u64>>,
    /// Stimulus words the session has stepped across all sim jobs.
    pub words_stepped: u64,
    /// Lane-cycles consumed (`words × 64 lanes`).
    pub lane_cycles: u64,
}

impl SessionSnapshot {
    /// Recompute the design fingerprint from the carried compile request —
    /// the authoritative address restore resolves through the cache,
    /// independent of the recorded [`SessionSnapshot::design_key`].
    pub fn fingerprint(&self) -> DesignFingerprint {
        DesignFingerprint::new(&self.arch, &self.circuits, &self.options)
    }

    /// Serialized size in bytes (pretty-printed JSON, the wire format the
    /// shard experiment reports).
    pub fn serialized_bytes(&self) -> usize {
        serde_json::to_string(self).map_or(0, |s| s.len())
    }

    /// Structural self-consistency checks that need no compiled design:
    /// version match, one register vector per context, active context in
    /// range. Run at submit time so a malformed snapshot is refused with
    /// [`crate::SubmitError::Malformed`] instead of burning a worker.
    pub(crate) fn validate_shape(&self) -> Result<(), MalformedReason> {
        if self.version != SNAPSHOT_VERSION {
            return Err(MalformedReason::SnapshotVersion {
                expected: SNAPSHOT_VERSION,
                got: self.version,
            });
        }
        if self.regs.len() != self.circuits.len() {
            return Err(MalformedReason::SnapshotShape {
                detail: format!(
                    "{} register vectors for {} contexts",
                    self.regs.len(),
                    self.circuits.len()
                ),
            });
        }
        if !self.circuits.is_empty() && self.active_context >= self.circuits.len() {
            return Err(MalformedReason::SnapshotShape {
                detail: format!(
                    "active context {} of {}",
                    self.active_context,
                    self.circuits.len()
                ),
            });
        }
        Ok(())
    }
}
