//! Job descriptions, their outcomes, the unified [`Request`] / [`Outcome`]
//! surface, and the handle a submission returns.
//!
//! Every submission — compile, sim, checkpoint, restore — enters the server
//! through one typed door: [`crate::Server::submit`] accepts anything
//! `Into<Request>` and returns a `JobHandle<Outcome>`. The per-kind
//! convenience methods (`submit_compile`, `submit_sim`) are thin wrappers
//! that [`JobHandle::map`] the unified outcome back to the concrete type,
//! which is also what lets a shard router forward one request type instead
//! of N methods.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::Netlist;
use mcfpga_sim::CompileOptions;

use crate::admission::JobKind;
use crate::design::CompiledDesign;
use crate::error::ServeError;
use crate::server::SessionId;
use crate::session::SessionSnapshot;

/// Server-assigned identity of one accepted job, stamped on every trace
/// event the job emits (see `mcfpga_obs::job_trace`) and carried in its
/// outcome — the correlation key tying a client's result back to the exact
/// queue wait, cache lookup, and per-context compile spans it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw id, matching the `job` field on correlated trace events.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Compile a netlist set onto an architecture. Repeat submissions with the
/// same content hit the server's design cache instead of recompiling.
#[derive(Debug, Clone)]
pub struct CompileJob {
    pub(crate) arch: ArchSpec,
    pub(crate) circuits: Vec<Netlist>,
    pub(crate) options: CompileOptions,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tenant: Option<String>,
}

impl CompileJob {
    /// One netlist per context, to be compiled onto `arch` with default
    /// options and the server's default deadline.
    pub fn new(arch: ArchSpec, circuits: Vec<Netlist>) -> CompileJob {
        CompileJob {
            arch,
            circuits,
            options: CompileOptions::default(),
            deadline: None,
            tenant: None,
        }
    }

    /// Compile-pipeline knobs. `parallel` does not affect the artifact (or
    /// the cache key) — only the schedule inside this one job.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Maximum time this job may sit in the queue before it is failed with
    /// [`ServeError::Deadline`] instead of being serviced.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tenant label this job is accounted to (see
    /// [`crate::Server::tenant_stats`]) and tagged with in the trace ring.
    /// Unlabeled jobs are charged to [`crate::DEFAULT_TENANT`].
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What a completed [`CompileJob`] yields: the shared artifact, a fresh
/// session bound to it, and where the time went.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// The server-assigned job id — the trace correlation key.
    pub job: JobId,
    /// The compiled artifact (shared with the cache and other sessions).
    pub design: Arc<CompiledDesign>,
    /// A fresh session holding private register state for this tenant.
    /// Cache hits still get their own session — tenants share the compiled
    /// configuration, never runtime state.
    pub session: SessionId,
    /// Whether the design came out of the content-addressed cache.
    pub cache_hit: bool,
    /// Set when the design was delta-compiled against a cached near match
    /// (same arch/route options, overlapping per-context netlists): what
    /// was reused versus recomputed. `None` for exact cache hits and cold
    /// compiles. The artifact is bit-identical either way — this only
    /// explains where the service time went.
    pub delta: Option<mcfpga_sim::DeltaStats>,
    /// Microseconds the job waited in the queue.
    pub wait_us: u64,
    /// Microseconds of service time (cache lookup + compile if any).
    pub service_us: u64,
}

/// Step a session's compiled kernel: one word per primary input per cycle,
/// 64 stimulus lanes per word (see `mcfpga_sim::LANES`).
///
/// Stimulus shape is validated at submit time against the session's design
/// (when the session exists): a wrong context index or input arity is
/// refused with [`crate::SubmitError::Malformed`] instead of failing on a
/// worker.
#[derive(Debug, Clone)]
pub struct SimJob {
    pub(crate) session: SessionId,
    pub(crate) context: usize,
    pub(crate) words: Vec<Vec<u64>>,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tenant: Option<String>,
}

impl SimJob {
    /// Run `words` (one inner vec of input words per cycle) through
    /// `context` of the session's design, carrying the session's private
    /// register state across cycles and across jobs.
    pub fn new(session: SessionId, context: usize, words: Vec<Vec<u64>>) -> SimJob {
        SimJob {
            session,
            context,
            words,
            deadline: None,
            tenant: None,
        }
    }

    /// Maximum queue wait before [`ServeError::Deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tenant label for accounting and trace correlation (defaults to
    /// [`crate::DEFAULT_TENANT`]).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What a completed [`SimJob`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// The server-assigned job id — the trace correlation key.
    pub job: JobId,
    /// One inner vec of output words per submitted cycle: the job's own
    /// stimulus rows, rewritten in place.
    pub outputs: Vec<Vec<u64>>,
    /// Microseconds the job waited in the queue.
    pub wait_us: u64,
    /// Microseconds of kernel service time.
    pub service_us: u64,
}

/// Checkpoint a live session into a serializable [`SessionSnapshot`].
/// Serialized behind the session's own lock, so the snapshot is always a
/// consistent between-jobs state.
#[derive(Debug, Clone)]
pub struct CheckpointJob {
    pub(crate) session: SessionId,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tenant: Option<String>,
}

impl CheckpointJob {
    /// Checkpoint `session`.
    pub fn new(session: SessionId) -> CheckpointJob {
        CheckpointJob {
            session,
            deadline: None,
            tenant: None,
        }
    }

    /// Maximum queue wait before [`ServeError::Deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tenant label for accounting (defaults to [`crate::DEFAULT_TENANT`]).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What a completed [`CheckpointJob`] yields.
#[derive(Debug, Clone)]
pub struct CheckpointOutcome {
    /// The server-assigned job id — the trace correlation key.
    pub job: JobId,
    /// The session the snapshot was taken from (still live).
    pub session: SessionId,
    /// The serializable checkpoint.
    pub snapshot: SessionSnapshot,
    /// Microseconds the job waited in the queue.
    pub wait_us: u64,
    /// Microseconds of service time.
    pub service_us: u64,
}

/// Restore a [`SessionSnapshot`] into a fresh session on this server,
/// resolving the design through the cache and delta/cold-compiling on a
/// miss — subsequent output is bit-identical to the uninterrupted run.
#[derive(Debug, Clone)]
pub struct RestoreJob {
    pub(crate) snapshot: SessionSnapshot,
    pub(crate) deadline: Option<Duration>,
    pub(crate) tenant: Option<String>,
}

impl RestoreJob {
    /// Restore `snapshot`. The restored session keeps the snapshot's tenant
    /// label; `with_tenant` only relabels the restore job itself.
    pub fn new(snapshot: SessionSnapshot) -> RestoreJob {
        RestoreJob {
            snapshot,
            deadline: None,
            tenant: None,
        }
    }

    /// Maximum time since submission before [`ServeError::Deadline`],
    /// checked at dequeue and between per-context recompile phases.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tenant the restore *job* is accounted to (defaults to the
    /// snapshot's tenant). The restored session always keeps the
    /// snapshot's tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What a completed [`RestoreJob`] yields.
#[derive(Debug, Clone)]
pub struct RestoreOutcome {
    /// The server-assigned job id — the trace correlation key.
    pub job: JobId,
    /// The fresh session resuming the snapshot's state.
    pub session: SessionId,
    /// The resolved design (cache hit or recompiled — bit-identical).
    pub design: Arc<CompiledDesign>,
    /// Whether restore had to compile (exact cache miss). The
    /// recompile-on-restore rate the shard experiment reports is the mean
    /// of this flag.
    pub recompiled: bool,
    /// Delta-compile reuse stats when the recompile found a near-match
    /// base; `None` on exact hits and cold compiles.
    pub delta: Option<mcfpga_sim::DeltaStats>,
    /// `true` when the design key recorded in the snapshot no longer
    /// matches the fingerprint this build computes from the same request —
    /// the cross-build re-key case. The restore is still valid: register
    /// counts were checked against the freshly resolved design.
    pub refingerprinted: bool,
    /// Microseconds the job waited in the queue.
    pub wait_us: u64,
    /// Microseconds of service time (resolve + compile if any).
    pub service_us: u64,
}

/// The unified submission type: everything [`crate::Server::submit`]
/// accepts. Each job type converts with `From`, so call sites write
/// `server.submit(CompileJob::new(..))` and shard routers forward one
/// request type.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Request {
    Compile(CompileJob),
    Sim(SimJob),
    Checkpoint(CheckpointJob),
    Restore(RestoreJob),
}

impl Request {
    /// Which admission kind this request carries.
    pub fn kind(&self) -> JobKind {
        match self {
            Request::Compile(_) => JobKind::Compile,
            Request::Sim(_) => JobKind::Sim,
            Request::Checkpoint(_) => JobKind::Checkpoint,
            Request::Restore(_) => JobKind::Restore,
        }
    }

    pub(crate) fn deadline(&self) -> Option<Duration> {
        match self {
            Request::Compile(j) => j.deadline,
            Request::Sim(j) => j.deadline,
            Request::Checkpoint(j) => j.deadline,
            Request::Restore(j) => j.deadline,
        }
    }

    /// The tenant label to account the job to. Restore jobs default to the
    /// snapshot's own tenant.
    pub(crate) fn tenant(&self) -> Option<String> {
        match self {
            Request::Compile(j) => j.tenant.clone(),
            Request::Sim(j) => j.tenant.clone(),
            Request::Checkpoint(j) => j.tenant.clone(),
            Request::Restore(j) => j.tenant.clone().or_else(|| Some(j.snapshot.tenant.clone())),
        }
    }
}

impl From<CompileJob> for Request {
    fn from(j: CompileJob) -> Request {
        Request::Compile(j)
    }
}

impl From<SimJob> for Request {
    fn from(j: SimJob) -> Request {
        Request::Sim(j)
    }
}

impl From<CheckpointJob> for Request {
    fn from(j: CheckpointJob) -> Request {
        Request::Checkpoint(j)
    }
}

impl From<RestoreJob> for Request {
    fn from(j: RestoreJob) -> Request {
        Request::Restore(j)
    }
}

/// The unified completion type [`crate::Server::submit`] resolves to — one
/// variant per [`Request`] variant. `#[non_exhaustive]`: future request
/// kinds add variants without breaking matches.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Outcome {
    Compile(CompileOutcome),
    Sim(SimOutcome),
    Checkpoint(CheckpointOutcome),
    Restore(RestoreOutcome),
}

impl Outcome {
    /// The job id every variant carries.
    pub fn job(&self) -> JobId {
        match self {
            Outcome::Compile(o) => o.job,
            Outcome::Sim(o) => o.job,
            Outcome::Checkpoint(o) => o.job,
            Outcome::Restore(o) => o.job,
        }
    }

    /// Microseconds the job waited in the queue.
    pub fn wait_us(&self) -> u64 {
        match self {
            Outcome::Compile(o) => o.wait_us,
            Outcome::Sim(o) => o.wait_us,
            Outcome::Checkpoint(o) => o.wait_us,
            Outcome::Restore(o) => o.wait_us,
        }
    }

    /// Microseconds of service time.
    pub fn service_us(&self) -> u64 {
        match self {
            Outcome::Compile(o) => o.service_us,
            Outcome::Sim(o) => o.service_us,
            Outcome::Checkpoint(o) => o.service_us,
            Outcome::Restore(o) => o.service_us,
        }
    }

    /// The compile outcome, if this is one.
    pub fn into_compile(self) -> Option<CompileOutcome> {
        match self {
            Outcome::Compile(o) => Some(o),
            _ => None,
        }
    }

    /// The sim outcome, if this is one.
    pub fn into_sim(self) -> Option<SimOutcome> {
        match self {
            Outcome::Sim(o) => Some(o),
            _ => None,
        }
    }

    /// The checkpoint outcome, if this is one.
    pub fn into_checkpoint(self) -> Option<CheckpointOutcome> {
        match self {
            Outcome::Checkpoint(o) => Some(o),
            _ => None,
        }
    }

    /// The restore outcome, if this is one.
    pub fn into_restore(self) -> Option<RestoreOutcome> {
        match self {
            Outcome::Restore(o) => Some(o),
            _ => None,
        }
    }

    pub(crate) fn set_times(&mut self, wait_us: u64, service_us: u64) {
        match self {
            Outcome::Compile(o) => {
                o.wait_us = wait_us;
                o.service_us = service_us;
            }
            Outcome::Sim(o) => {
                o.wait_us = wait_us;
                o.service_us = service_us;
            }
            Outcome::Checkpoint(o) => {
                o.wait_us = wait_us;
                o.service_us = service_us;
            }
            Outcome::Restore(o) => {
                o.wait_us = wait_us;
                o.service_us = service_us;
            }
        }
    }
}

/// The completion slot a worker fills and a client waits on. Workers always
/// complete the unified [`Outcome`]; typed handles convert on the way out.
pub(crate) struct Shared {
    slot: Mutex<Option<Result<Outcome, ServeError>>>,
    done: Condvar,
}

impl Shared {
    pub(crate) fn new() -> Arc<Shared> {
        Arc::new(Shared {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn complete(&self, result: Result<Outcome, ServeError>) {
        let mut slot = self.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "job completed twice");
        *slot = Some(result);
        self.done.notify_all();
    }
}

/// A ticket for one accepted job. [`JobHandle::wait`] blocks until a worker
/// completes the job; every accepted job is completed even during server
/// shutdown (the pool drains its queue before exiting), so `wait` never
/// hangs.
///
/// The handle is typed by what the caller asked for: [`crate::Server::submit`]
/// returns `JobHandle<Outcome>`, the per-kind wrappers return handles
/// already mapped to the concrete outcome, and [`JobHandle::map`] composes
/// further conversions without touching the completion slot.
pub struct JobHandle<T> {
    pub(crate) job: JobId,
    pub(crate) shared: Arc<Shared>,
    pub(crate) convert: Arc<dyn Fn(Outcome) -> T + Send + Sync>,
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.job)
            .finish_non_exhaustive()
    }
}

impl JobHandle<Outcome> {
    /// An identity handle over the unified outcome slot.
    pub(crate) fn new(job: JobId, shared: Arc<Shared>) -> JobHandle<Outcome> {
        JobHandle {
            job,
            shared,
            convert: Arc::new(|o| o),
        }
    }
}

impl<T> JobHandle<T> {
    /// The server-assigned id of the accepted job — usable immediately (the
    /// outcome carries the same id) to correlate against trace events.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Block until the job completes.
    pub fn wait(self) -> Result<T, ServeError> {
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                drop(slot);
                return result.map(|o| (self.convert)(o));
            }
            slot = self.shared.done.wait(slot).unwrap();
        }
    }

    /// The outcome if the job already completed, `None` while it is still
    /// queued or running.
    pub fn try_wait(&self) -> Option<Result<T, ServeError>> {
        let taken = self.shared.slot.lock().unwrap().take();
        taken.map(|result| result.map(|o| (self.convert)(o)))
    }

    /// Block until the job completes or `timeout` elapses. `None` means the
    /// timeout fired with the job still in flight — the handle remains
    /// valid, so callers can keep waiting (no hand-rolled `try_wait` poll
    /// loops). `Some` consumes the outcome, exactly like
    /// [`JobHandle::try_wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                drop(slot);
                return Some(result.map(|o| (self.convert)(o)));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.shared.done.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
    }

    /// Lazily post-process the outcome: the conversion runs on the waiting
    /// thread when the result is taken, not on the worker. Composes — this
    /// is how the typed `submit_compile`/`submit_sim` wrappers are built on
    /// the unified [`Outcome`] slot.
    pub fn map<U>(self, f: impl Fn(T) -> U + Send + Sync + 'static) -> JobHandle<U>
    where
        T: 'static,
    {
        let convert = self.convert;
        JobHandle {
            job: self.job,
            shared: self.shared,
            convert: Arc::new(move |o| f(convert(o))),
        }
    }
}
