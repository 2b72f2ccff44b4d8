//! Typed failures of the serving layer: rejection at the door
//! ([`SubmitError`]) and failure after acceptance ([`ServeError`]).

use crate::admission::ShedReason;
use crate::server::SessionId;

/// Why a submission was structurally invalid — caught at submit time,
/// before the job ever reaches the queue (see [`SubmitError::Malformed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MalformedReason {
    /// A sim job named a context the session's design does not program.
    ContextOutOfRange { context: usize, programmed: usize },
    /// A sim job's stimulus row carries the wrong number of input words for
    /// the targeted context's kernel.
    InputArity {
        cycle: usize,
        expected: usize,
        got: usize,
    },
    /// A snapshot's register state does not match its own compile request
    /// (wrong per-context count), or its active context is out of range.
    SnapshotShape { detail: String },
    /// A snapshot was written by an incompatible snapshot-format version.
    SnapshotVersion { expected: u32, got: u32 },
    /// A routed submission named a session no alive shard holds.
    UnknownSession { session: SessionId },
}

impl std::fmt::Display for MalformedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MalformedReason::ContextOutOfRange {
                context,
                programmed,
            } => write!(
                f,
                "context {context} out of range ({programmed} programmed)"
            ),
            MalformedReason::InputArity {
                cycle,
                expected,
                got,
            } => write!(
                f,
                "stimulus cycle {cycle} carries {got} input words, kernel expects {expected}"
            ),
            MalformedReason::SnapshotShape { detail } => {
                write!(f, "snapshot shape invalid: {detail}")
            }
            MalformedReason::SnapshotVersion { expected, got } => {
                write!(f, "snapshot version {got}, this build reads {expected}")
            }
            MalformedReason::UnknownSession { session } => {
                write!(f, "no alive shard holds session {}", session.raw())
            }
        }
    }
}

/// A submission the server refused to enqueue. The job never ran; the
/// caller decides whether to retry, shed, or redirect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is at capacity — explicit backpressure.
    QueueFull { capacity: usize },
    /// An admission limit refused the job while the queue still had room
    /// (overload protection; see [`crate::ServeConfig::queue_watermark`] and
    /// [`crate::ServeConfig::tenant_inflight_cap`]). The reason is also
    /// counted under `serve.shed.*` and traced as a `job_shed` event.
    Shed { reason: ShedReason },
    /// The submission is structurally invalid (bad stimulus shape, bad
    /// snapshot) — caught at submit time so a malformed job never burns a
    /// worker. Counted under `serve.jobs_malformed` and charged to the
    /// tenant's `rejected` bucket.
    Malformed { reason: MalformedReason },
    /// The server is shutting down and accepts no new work.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} jobs)")
            }
            SubmitError::Shed { reason } => write!(f, "shed by admission control: {reason}"),
            SubmitError::Malformed { reason } => write!(f, "malformed submission: {reason}"),
            SubmitError::Shutdown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// An accepted job that did not produce its outcome.
#[derive(Debug)]
pub enum ServeError {
    /// The job's deadline elapsed while it was still queued; it was never
    /// serviced.
    Deadline { waited_us: u64 },
    /// The underlying compile or simulation failed; the full
    /// [`mcfpga_sim::Error`] payload is preserved for discrimination.
    Job(mcfpga_sim::Error),
    /// A [`crate::SimJob`] named a session this server doesn't hold
    /// (never opened, or already closed).
    SessionNotFound { session: SessionId },
    /// A restore's register state does not fit the design its compile
    /// request resolves to on this build — the snapshot and the artifact
    /// disagree about register counts or context count.
    SnapshotMismatch { detail: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Deadline { waited_us } => {
                write!(f, "deadline elapsed after {waited_us} us in queue")
            }
            ServeError::Job(e) => write!(f, "job failed: {e}"),
            ServeError::SessionNotFound { session } => {
                write!(f, "unknown session {session:?}")
            }
            ServeError::SnapshotMismatch { detail } => {
                write!(f, "snapshot does not fit restored design: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Job(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mcfpga_sim::Error> for ServeError {
    fn from(e: mcfpga_sim::Error) -> Self {
        ServeError::Job(e)
    }
}

impl From<mcfpga_sim::SimError> for ServeError {
    fn from(e: mcfpga_sim::SimError) -> Self {
        ServeError::Job(e.into())
    }
}

impl From<mcfpga_sim::CompileError> for ServeError {
    fn from(e: mcfpga_sim::CompileError) -> Self {
        ServeError::Job(e.into())
    }
}
