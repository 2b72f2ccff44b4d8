//! Multi-tenant job serving over the MC-FPGA compile flow and batched
//! simulator.
//!
//! The reproduction's north star is a system that serves many concurrent
//! clients from one fabric model — the workload shape multi-context FPGAs
//! are built for (shared, dynamically re-tasked hardware). This crate is
//! that layer:
//!
//! - A [`Server`] owns a fixed worker pool and a **bounded** submission
//!   queue behind one unified door: [`Server::submit`] accepts anything
//!   `Into<`[`Request`]`>` — compile, sim, checkpoint, restore — and
//!   resolves to an [`Outcome`]; the typed wrappers
//!   ([`Server::submit_compile`], [`Server::submit_sim`], …) are thin
//!   [`JobHandle::map`]s over it. When the queue is full, submission
//!   returns [`SubmitError::QueueFull`] — callers get explicit
//!   backpressure, never unbounded memory growth. Structurally invalid
//!   submissions (bad stimulus shape, bad snapshot) are refused at the
//!   door with [`SubmitError::Malformed`]. Jobs can carry deadlines; a job
//!   still queued past its deadline completes with [`ServeError::Deadline`]
//!   instead of running late.
//! - [`CompileJob`]s (netlist set + architecture + options) resolve through
//!   a **content-addressed LRU cache** of [`CompiledDesign`]s: repeat
//!   submissions of the same content hit cache instead of recompiling, and
//!   the artifact is shared (`Arc`) across every tenant running it.
//! - Each completed compile opens a private session. [`SimJob`]s step the
//!   design's 64-lane batch kernels against that session's own register
//!   state — tenants share configuration, never runtime state.
//! - Sessions are **portable**: [`Server::checkpoint_session`] serializes
//!   one into a [`SessionSnapshot`] (full compile request + per-context
//!   register lanes + counters) and [`Server::restore_session`] resumes it
//!   — on this server or any other — with bit-identical subsequent output,
//!   delta/cold-recompiling through the design cache when the artifact is
//!   unknown.
//! - A [`ShardRouter`] scales the same [`Request`] door across N servers:
//!   rendezvous-hashed placement by design fingerprint, live migration
//!   ([`ShardRouter::migrate_session`]), and kill/recovery built on the
//!   checkpoint store ([`ShardRouter::kill_shard`] /
//!   [`ShardRouter::recover`]).
//! - Every job event — outcome, cache hit, near hit, eviction, checkpoint,
//!   restore — is counted once, in the server's ledger, which forwards the
//!   same `serve.*` counters to `mcfpga-obs`. [`Server::report`] condenses
//!   the ledger into a serializable [`ServeReport`] whether or not the
//!   server records; [`ServeReport::from_recorder`] sums every server that
//!   streams into one recorder.
//!
//! Production-observability surface:
//!
//! - **Correlation** — every accepted job gets a [`JobId`] and a tenant
//!   label ([`CompileJob::with_tenant`] / [`SimJob::with_tenant`], default
//!   [`DEFAULT_TENANT`]); every trace event the job causes — submit,
//!   dequeue, cache lookup, per-context compile phases, sim batches — is
//!   stamped with both, so `mcfpga_obs::job_trace` reconstructs one
//!   request's span tree out of the shared ring.
//! - **Per-tenant accounting** — a conserved [`TenantStats`] ledger per
//!   tenant (`submitted == completed + failed + expired + rejected + shed
//!   + inflight`), with service-time split by job kind, cache hit rate,
//!   and sim lane-cycles; queryable live via [`Server::tenant_stats`] and
//!   condensed into [`ServeReport::tenants`].
//! - **Live health** — [`Server::snapshot`] returns a [`HealthSnapshot`]
//!   (queue depth + high watermark, worker utilization, per-tenant
//!   inflight, rolling-window p99s) without touching the queue lock.
//! - **Admission control** — two [`ServeConfig`] limits, a queue watermark
//!   and a per-tenant in-flight cap (both off by default), shed work below
//!   the hard queue bound as typed [`SubmitError::Shed`] refusals, each
//!   counted under `serve.shed.*` and traced as a `job_shed` event.
//!
//! The whole crate is written against the redesigned fallible API surface
//! (`try_*` + the [`mcfpga_sim::Error`] umbrella): a malformed job fails
//! with a typed error through its [`JobHandle`]; it can never poison the
//! worker pool.

mod admission;
mod cache;
mod config;
mod design;
mod error;
mod job;
mod report;
mod server;
mod session;
mod shard;
mod snapshot;
mod tenant;

pub use admission::{JobKind, ShedReason};
pub use config::ServeConfig;
pub use design::{design_key, CompiledDesign, DesignFingerprint};
pub use error::{MalformedReason, ServeError, SubmitError};
pub use job::{
    CheckpointJob, CheckpointOutcome, CompileJob, CompileOutcome, JobHandle, JobId, Outcome,
    Request, RestoreJob, RestoreOutcome, SimJob, SimOutcome,
};
pub use mcfpga_sim::DeltaStats;
pub use report::ServeReport;
pub use server::{Server, SessionId};
pub use session::{SessionSnapshot, SNAPSHOT_VERSION};
pub use shard::{Migration, ShardError, ShardRouter};
pub use snapshot::{HealthSnapshot, TenantInflight};
pub use tenant::{TenantReport, TenantStats, DEFAULT_TENANT};
