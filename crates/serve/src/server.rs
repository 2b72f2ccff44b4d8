//! The worker pool, bounded queue, session table, tenant ledger, and job
//! execution.
//!
//! Telemetry discipline: the queue-depth gauges are derived from one
//! authoritative source — [`note_queue_depth`], called with the queue's
//! length at every transition *while the queue lock is held* — so the
//! submit and dequeue paths can never publish contradictory depths. An
//! atomic mirror of the same value serves lock-free snapshot reads.
//!
//! Lock ordering: queue → tenants. The tenant table is never locked before
//! the queue, and no lock is held across a compile or sim step. The
//! sessions map lock only guards the `SessionId → Arc<Session>` table;
//! per-session state sits behind each session's own lock, so a checkpoint
//! of one session never stalls sim jobs on another.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_sim::{CompileError, CompileOptions, DeltaStats, KernelScratch, SimError, LANES};

use crate::admission::{shed_reason, JobKind, ShedReason};
use crate::cache::DesignCache;
use crate::config::ServeConfig;
use crate::design::{CompiledDesign, DesignFingerprint};
use crate::error::{MalformedReason, ServeError, SubmitError};
use crate::job::{
    CheckpointJob, CheckpointOutcome, CompileJob, CompileOutcome, JobHandle, JobId, Outcome,
    Request, RestoreJob, RestoreOutcome, Shared, SimJob, SimOutcome,
};
use crate::report::ServeReport;
use crate::session::{SessionSnapshot, SNAPSHOT_VERSION};
use crate::snapshot::{HealthSnapshot, RollingLatency, TenantInflight};
use crate::tenant::{TenantStats, TenantTable, DEFAULT_TENANT};

/// Session ids are allocated from one process-global counter, not
/// per-server, so an id stays meaningful as its session migrates between
/// the shards of a [`crate::ShardRouter`] — no two servers in a process
/// ever mint the same id.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

fn next_session_id() -> SessionId {
    SessionId(NEXT_SESSION.fetch_add(1, Ordering::Relaxed))
}

/// Opaque handle to one tenant's private runtime state on a server.
/// Process-globally unique: ids survive checkpoint/restore-based migration
/// between servers without collision (restore still mints a fresh id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, for logging.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rehydrate an id from its raw form — for the shard router's snapshot
    /// store, which keys by raw id. Ids are process-globally allocated, so
    /// this never forges a colliding identity.
    pub(crate) fn from_raw(raw: u64) -> SessionId {
        SessionId(raw)
    }
}

/// The mutable half of a session: per-context lane-parallel register words,
/// reusable kernel scratch, and the execution counters a checkpoint carries.
struct SessionState {
    regs: Vec<Vec<u64>>,
    scratch: KernelScratch,
    active_context: usize,
    words_stepped: u64,
    lane_cycles: u64,
}

impl SessionState {
    /// A fresh session's state: every lane of every context starts from the
    /// design's power-on register state (bit broadcast across the 64 lanes).
    fn power_on(design: &CompiledDesign) -> SessionState {
        SessionState {
            regs: (0..design.n_contexts())
                .map(|c| {
                    design
                        .initial_registers(c)
                        .iter()
                        .map(|&b| if b { !0u64 } else { 0 })
                        .collect()
                })
                .collect(),
            scratch: KernelScratch::new(),
            active_context: 0,
            words_stepped: 0,
            lane_cycles: 0,
        }
    }
}

/// One tenant's session. The compiled design is shared and immutable; only
/// [`SessionState`] is private to the session, which is what keeps tenants
/// from contaminating each other. The design and tenant label sit *outside*
/// the state lock so submit-time stimulus validation can read them while a
/// sim job holds the state — and a checkpoint taking the state lock
/// naturally serializes against in-flight sim jobs, so a snapshot is always
/// a consistent between-jobs state.
struct Session {
    design: Arc<CompiledDesign>,
    tenant: String,
    state: Mutex<SessionState>,
}

/// Register a session running `design` from `state` and return its fresh
/// id — the one constructor compiles and restores share.
fn open_session(
    inner: &ServerInner,
    design: Arc<CompiledDesign>,
    tenant: String,
    state: SessionState,
) -> SessionId {
    let id = next_session_id();
    let session = Session {
        design,
        tenant,
        state: Mutex::new(state),
    };
    inner.sessions.lock().unwrap().insert(id, Arc::new(session));
    id
}

struct QueuedJob {
    job: JobId,
    tenant: String,
    request: Request,
    shared: Arc<Shared>,
    enqueued: Instant,
    deadline: Option<std::time::Duration>,
}

struct ServerInner {
    config: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: Mutex<DesignCache>,
    sessions: Mutex<HashMap<SessionId, Arc<Session>>>,
    next_job: AtomicU64,
    // Lock-free mirrors of queue state for snapshot reads; written only by
    // `note_queue_depth` while the queue lock is held.
    depth: AtomicUsize,
    depth_hwm: AtomicUsize,
    busy_workers: AtomicUsize,
    // QueueFull and Shutdown refusals (not malformed ones) and sheds per
    // reason, kept whether or not the recorder is enabled.
    rejected: AtomicU64,
    shed_queue_watermark: AtomicU64,
    shed_tenant_inflight: AtomicU64,
    n_workers: usize,
    tenants: TenantTable,
    wait_window: RollingLatency,
    service_window: RollingLatency,
    rec: Recorder,
}

/// Publish a new queue depth. Must be called with the queue lock held and
/// `len` equal to the queue's current length — the single authoritative
/// source both gauges and the snapshot mirror derive from.
fn note_queue_depth(inner: &ServerInner, len: usize) {
    inner.depth.store(len, Ordering::Relaxed);
    let mut hwm = inner.depth_hwm.load(Ordering::Relaxed);
    while len > hwm {
        match inner
            .depth_hwm
            .compare_exchange_weak(hwm, len, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {
                hwm = len;
                break;
            }
            Err(actual) => hwm = actual,
        }
    }
    inner.rec.set_gauge("serve.queue_depth", len as f64);
    inner
        .rec
        .set_gauge("serve.queue_depth_hwm", hwm.max(len) as f64);
}

/// RAII increment of the busy-worker gauge while a job is being serviced.
struct BusyGuard<'a>(&'a ServerInner);

impl<'a> BusyGuard<'a> {
    fn new(inner: &'a ServerInner) -> BusyGuard<'a> {
        inner.busy_workers.fetch_add(1, Ordering::Relaxed);
        BusyGuard(inner)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A multi-tenant job server over the MC-FPGA compile flow and batched
/// simulator: a fixed worker pool drains a bounded submission queue;
/// compiled designs are shared through a content-addressed LRU cache; each
/// tenant's register state lives in a private session.
///
/// All work enters through one door: [`Server::submit`] accepts anything
/// `Into<`[`Request`]`>` — compile, sim, checkpoint, restore — and returns
/// a `JobHandle<`[`Outcome`]`>`. The typed wrappers ([`Server::submit_compile`],
/// [`Server::submit_sim`], …) are thin [`JobHandle::map`]s over the same
/// path. Structurally invalid submissions (bad stimulus shape, bad
/// snapshot) are refused at the door with [`SubmitError::Malformed`]
/// instead of burning a worker.
///
/// Every submission attempt is accounted to its tenant's [`TenantStats`]
/// ledger (conserved: `submitted` equals `completed + failed + expired +
/// rejected + shed + inflight`), every accepted job's trace events carry its
/// [`JobId`] and tenant label (reconstructable with `mcfpga_obs::job_trace`),
/// and [`Server::snapshot`] reads live health without touching the queue
/// lock. The [`ServeConfig`] queue watermark and tenant in-flight cap may
/// shed work below the hard capacity bound; each shed is typed, counted,
/// and traced.
///
/// Sessions are portable: [`Server::checkpoint_session`] serializes one
/// into a [`SessionSnapshot`] and [`Server::restore_session`] resumes it —
/// on this server or any other — with bit-identical subsequent output,
/// recompiling through the design cache when the artifact is unknown.
///
/// Dropping the server stops intake, drains every already-accepted job, and
/// joins the workers — so an accepted [`JobHandle`] always completes.
///
/// ```no_run
/// use mcfpga_serve::{CompileJob, ServeConfig, Server, SimJob};
///
/// let server = Server::new(ServeConfig::default().with_workers(4));
/// let arch = mcfpga_arch::ArchSpec::paper_default();
/// let circuits = vec![mcfpga_netlist::library::adder(4)];
/// let handle = server.submit_compile(CompileJob::new(arch, circuits))?;
/// let compiled = handle.wait()?;
/// let sim = server
///     .submit_sim(SimJob::new(compiled.session, 0, vec![vec![0; 9]]))?
///     .wait()?;
/// println!("outputs: {:?}", sim.outputs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server with its own (disabled) recorder.
    pub fn new(config: ServeConfig) -> Server {
        Server::with_recorder(config, &Recorder::disabled())
    }

    /// Start a server routing queue/cache/latency telemetry into `rec`
    /// (counters `serve.*`, histograms `serve.wait_us` / `serve.service_us`,
    /// a span per serviced job, and per-job correlated trace events).
    pub fn with_recorder(config: ServeConfig, rec: &Recorder) -> Server {
        let n_workers = config.resolved_workers();
        let cache = DesignCache::new(config.cache_capacity);
        let inner = Arc::new(ServerInner {
            config,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(cache),
            sessions: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            depth: AtomicUsize::new(0),
            depth_hwm: AtomicUsize::new(0),
            busy_workers: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            shed_queue_watermark: AtomicU64::new(0),
            shed_tenant_inflight: AtomicU64::new(0),
            n_workers,
            tenants: TenantTable::default(),
            wait_window: RollingLatency::default(),
            service_window: RollingLatency::default(),
            rec: rec.clone(),
        });
        inner.rec.set_gauge("serve.workers", n_workers as f64);
        let workers = (0..n_workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Enqueue any request — the unified submission door. Refused with
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::Shed`] when a [`ServeConfig`] admission limit is
    /// reached, or [`SubmitError::Malformed`] when the submission is
    /// structurally invalid — the caller owns the retry policy.
    pub fn submit(&self, request: impl Into<Request>) -> Result<JobHandle<Outcome>, SubmitError> {
        let request = request.into();
        let inner = &self.inner;
        let tenant = request
            .tenant()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let kind = request.kind();
        let deadline = request.deadline();
        let job = JobId(inner.next_job.fetch_add(1, Ordering::Relaxed));
        let crec = inner.rec.correlated(job.raw(), &tenant);
        inner.tenants.on_submitted(&tenant);
        if inner.shutdown.load(Ordering::SeqCst) {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            inner.rec.incr("serve.jobs_rejected", 1);
            inner.tenants.on_rejected(&tenant);
            return Err(SubmitError::Shutdown);
        }
        // Structural validation before the queue lock: a malformed job is
        // refused here, typed, and never reaches a worker. Charged to the
        // tenant's `rejected` bucket so the ledger stays conserved.
        if let Err(reason) = self.validate(&request) {
            inner.rec.incr("serve.jobs_malformed", 1);
            inner.tenants.on_rejected(&tenant);
            crec.instant(
                "job_malformed",
                &[
                    ("kind", kind.name().into()),
                    ("reason", reason.to_string().into()),
                ],
            );
            return Err(SubmitError::Malformed { reason });
        }
        let mut queue = inner.queue.lock().unwrap();
        if queue.len() >= inner.config.queue_capacity {
            drop(queue);
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            inner.rec.incr("serve.jobs_rejected", 1);
            inner.tenants.on_rejected(&tenant);
            crec.instant(
                "job_rejected",
                &[
                    ("kind", kind.name().into()),
                    ("capacity", inner.config.queue_capacity.into()),
                ],
            );
            return Err(SubmitError::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }
        let depth = queue.len();
        let inflight = inner.tenants.inflight(&tenant);
        if let Some(reason) = shed_reason(&inner.config, depth, inflight) {
            drop(queue);
            let (count, counter) = match reason {
                ShedReason::QueueWatermark { .. } => {
                    (&inner.shed_queue_watermark, "serve.shed.queue_watermark")
                }
                ShedReason::TenantInflight { .. } => {
                    (&inner.shed_tenant_inflight, "serve.shed.tenant_inflight")
                }
            };
            count.fetch_add(1, Ordering::Relaxed);
            inner.rec.incr("serve.shed.total", 1);
            inner.rec.incr(counter, 1);
            inner.tenants.on_shed(&tenant);
            crec.instant(
                "job_shed",
                &[
                    ("kind", kind.name().into()),
                    ("reason", reason.key().into()),
                    ("detail", reason.to_string().into()),
                    ("queue_depth", depth.into()),
                    ("tenant_inflight", inflight.into()),
                ],
            );
            return Err(SubmitError::Shed { reason });
        }
        inner.tenants.on_accepted(&tenant, kind);
        let shared = Shared::new();
        queue.push_back(QueuedJob {
            job,
            tenant,
            request,
            shared: shared.clone(),
            enqueued: Instant::now(),
            deadline: deadline.or(inner.config.default_deadline),
        });
        inner.rec.incr("serve.jobs_submitted", 1);
        let depth = queue.len();
        note_queue_depth(inner, depth);
        drop(queue);
        crec.instant(
            "job_submitted",
            &[("kind", kind.name().into()), ("queue_depth", depth.into())],
        );
        inner.available.notify_one();
        Ok(JobHandle::new(job, shared))
    }

    /// Structural checks that need no worker: sim stimulus shape against
    /// the session's design, snapshot self-consistency. A sim job naming an
    /// unknown session passes here — session existence is racy by nature,
    /// so the worker reports [`ServeError::SessionNotFound`] as before.
    fn validate(&self, request: &Request) -> Result<(), MalformedReason> {
        match request {
            Request::Sim(job) => {
                let session = self
                    .inner
                    .sessions
                    .lock()
                    .unwrap()
                    .get(&job.session)
                    .cloned();
                let Some(session) = session else {
                    return Ok(());
                };
                let design = &session.design;
                if job.context >= design.n_contexts() {
                    return Err(MalformedReason::ContextOutOfRange {
                        context: job.context,
                        programmed: design.n_contexts(),
                    });
                }
                let expected = design.kernel(job.context).n_inputs();
                for (cycle, words) in job.words.iter().enumerate() {
                    if words.len() != expected {
                        return Err(MalformedReason::InputArity {
                            cycle,
                            expected,
                            got: words.len(),
                        });
                    }
                }
                Ok(())
            }
            Request::Restore(job) => job.snapshot.validate_shape(),
            _ => Ok(()),
        }
    }

    /// Enqueue a compile job. A typed wrapper over [`Server::submit`].
    pub fn submit_compile(
        &self,
        job: CompileJob,
    ) -> Result<JobHandle<CompileOutcome>, SubmitError> {
        Ok(self.submit(job)?.map(|o| {
            o.into_compile()
                .expect("compile request completes with a compile outcome")
        }))
    }

    /// Enqueue a sim job against a session returned by a completed compile.
    /// A typed wrapper over [`Server::submit`].
    pub fn submit_sim(&self, job: SimJob) -> Result<JobHandle<SimOutcome>, SubmitError> {
        Ok(self.submit(job)?.map(|o| {
            o.into_sim()
                .expect("sim request completes with a sim outcome")
        }))
    }

    /// Enqueue a checkpoint job. A typed wrapper over [`Server::submit`];
    /// see [`Server::checkpoint_session`] for the synchronous form.
    pub fn submit_checkpoint(
        &self,
        job: CheckpointJob,
    ) -> Result<JobHandle<CheckpointOutcome>, SubmitError> {
        Ok(self.submit(job)?.map(|o| {
            o.into_checkpoint()
                .expect("checkpoint request completes with a checkpoint outcome")
        }))
    }

    /// Enqueue a restore job. A typed wrapper over [`Server::submit`];
    /// see [`Server::restore_session`] for the synchronous form.
    pub fn submit_restore(
        &self,
        job: RestoreJob,
    ) -> Result<JobHandle<RestoreOutcome>, SubmitError> {
        Ok(self.submit(job)?.map(|o| {
            o.into_restore()
                .expect("restore request completes with a restore outcome")
        }))
    }

    /// Serialize one session into a portable [`SessionSnapshot`] — the
    /// synchronous control-plane form (a queued [`CheckpointJob`] does the
    /// same through the worker pool, with queue accounting). Taken behind
    /// the session's own lock, so the snapshot is a consistent between-jobs
    /// state: an in-flight sim job either fully precedes or fully follows
    /// it. The session stays live.
    pub fn checkpoint_session(&self, session: SessionId) -> Result<SessionSnapshot, ServeError> {
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        do_checkpoint(&self.inner, session, job)
    }

    /// Resume a [`SessionSnapshot`] as a fresh session on this server — the
    /// synchronous control-plane form of [`RestoreJob`], with no deadline.
    /// The design is resolved through the cache by the fingerprint
    /// recomputed from the snapshot's carried compile request,
    /// delta/cold-compiling on a miss; the lookup is charged to the
    /// snapshot's tenant. Subsequent output is bit-identical to the
    /// uninterrupted run.
    pub fn restore_session(&self, snapshot: SessionSnapshot) -> Result<RestoreOutcome, ServeError> {
        snapshot
            .validate_shape()
            .map_err(|reason| ServeError::SnapshotMismatch {
                detail: reason.to_string(),
            })?;
        let job = JobId(self.inner.next_job.fetch_add(1, Ordering::Relaxed));
        let meta = JobMeta {
            job,
            tenant: snapshot.tenant.clone(),
            kind: JobKind::Restore,
            crec: self.inner.rec.correlated(job.raw(), &snapshot.tenant),
            enqueued: Instant::now(),
            deadline: None,
        };
        do_restore(&self.inner, &snapshot, &meta)
    }

    /// Drop a session's private state. Sim jobs naming it afterwards fail
    /// with [`ServeError::SessionNotFound`]. Returns whether it existed.
    pub fn close_session(&self, session: SessionId) -> bool {
        self.inner
            .sessions
            .lock()
            .unwrap()
            .remove(&session)
            .is_some()
    }

    /// Whether this server currently holds `session` — how a shard router
    /// locates a session's owner.
    pub fn has_session(&self, session: SessionId) -> bool {
        self.inner.sessions.lock().unwrap().contains_key(&session)
    }

    /// Ids of every live session, ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .inner
            .sessions
            .lock()
            .unwrap()
            .keys()
            .copied()
            .collect();
        ids.sort();
        ids
    }

    /// The design-fingerprint key a live session runs (`None` if unknown) —
    /// what a shard router hashes to decide the session's home shard.
    pub fn session_design_key(&self, session: SessionId) -> Option<u64> {
        self.inner
            .sessions
            .lock()
            .unwrap()
            .get(&session)
            .map(|s| s.design.key())
    }

    /// Live session count.
    pub fn n_sessions(&self) -> usize {
        self.inner.sessions.lock().unwrap().len()
    }

    /// Designs currently held by the LRU cache.
    pub fn cached_designs(&self) -> usize {
        self.inner.cache.lock().unwrap().len()
    }

    /// One tenant's exact counters right now (`None` if the tenant never
    /// submitted). The stats are conserved: see [`TenantStats::is_conserved`].
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.inner.tenants.stats(tenant)
    }

    /// A point-in-time health view, cheap enough to call on every submit:
    /// reads atomic mirrors and the tenant/session tables, never the job
    /// queue lock.
    pub fn snapshot(&self) -> HealthSnapshot {
        let inner = &self.inner;
        let tenant_inflight: Vec<TenantInflight> = inner
            .tenants
            .inflight_all()
            .into_iter()
            .map(|(tenant, inflight)| TenantInflight { tenant, inflight })
            .collect();
        let inflight = tenant_inflight.iter().map(|t| t.inflight).sum();
        let busy = inner.busy_workers.load(Ordering::Relaxed);
        HealthSnapshot {
            queue_depth: inner.depth.load(Ordering::Relaxed),
            queue_capacity: inner.config.queue_capacity,
            queue_depth_hwm: inner.depth_hwm.load(Ordering::Relaxed),
            inflight,
            workers: inner.n_workers,
            busy_workers: busy,
            worker_utilization: if inner.n_workers == 0 {
                0.0
            } else {
                busy as f64 / inner.n_workers as f64
            },
            sessions: inner.sessions.lock().unwrap().len(),
            cached_designs: inner.cache.lock().unwrap().len(),
            rolling_wait_p99_us: inner.wait_window.p99(),
            rolling_service_p99_us: inner.service_window.p99(),
            jobs_shed: inner.shed_queue_watermark.load(Ordering::Relaxed)
                + inner.shed_tenant_inflight.load(Ordering::Relaxed),
            jobs_rejected: inner.rejected.load(Ordering::Relaxed),
            trace_dropped: inner.rec.trace_dropped(),
            tenant_inflight,
        }
    }

    /// Snapshot the serving metrics collected so far. Job outcomes, cache
    /// lookups, refusals, the queue-depth high watermark and the per-tenant
    /// ledgers are the server's own, read whether or not its recorder is
    /// enabled; the rest comes from the recorder (see [`ServeReport`]).
    pub fn report(&self) -> ServeReport {
        let inner = &self.inner;
        let mut report = ServeReport::from_recorder(&inner.rec);
        let tenants = inner.tenants.reports();
        let total = |count: fn(&TenantStats) -> u64| -> u64 {
            tenants.iter().map(|t| count(&t.stats)).sum()
        };
        let rejected = inner.rejected.load(Ordering::Relaxed);
        // A tenant's `rejected` also files malformed submissions; the
        // server's own count holds only QueueFull and Shutdown. Attempts
        // still being decided count as accepted until they are.
        report.jobs_submitted =
            total(|s| s.submitted).saturating_sub(total(|s| s.rejected) + total(|s| s.shed));
        report.jobs_completed = total(|s| s.completed);
        report.jobs_failed = total(|s| s.failed);
        report.jobs_expired = total(|s| s.expired);
        report.cache_hits = total(|s| s.cache_hits);
        report.cache_misses = total(|s| s.cache_misses);
        report.jobs_malformed = total(|s| s.rejected).saturating_sub(rejected);
        report.jobs_rejected = rejected;
        report.shed_queue_watermark = inner.shed_queue_watermark.load(Ordering::Relaxed);
        report.shed_tenant_inflight = inner.shed_tenant_inflight.load(Ordering::Relaxed);
        report.jobs_shed = report.shed_queue_watermark + report.shed_tenant_inflight;
        report.queue_depth_hwm = inner.depth_hwm.load(Ordering::Relaxed) as u64;
        report.tenants = tenants;
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Everything a job's processing and `finish` need to attribute it. A
/// synchronous control-plane call builds one too, with no deadline.
struct JobMeta {
    job: JobId,
    tenant: String,
    kind: JobKind,
    crec: Recorder,
    /// When the job entered the queue — with `deadline`, the remaining
    /// budget checked between per-context compile phases.
    enqueued: Instant,
    deadline: Option<std::time::Duration>,
}

/// The span and trace-event name a job of `kind` is timed under.
fn job_span_name(kind: JobKind) -> &'static str {
    match kind {
        JobKind::Compile => "compile_job",
        JobKind::Sim => "sim_job",
        JobKind::Checkpoint => "checkpoint_job",
        JobKind::Restore => "restore_job",
    }
}

fn worker_loop(inner: &ServerInner) {
    loop {
        let queued = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    note_queue_depth(inner, queue.len());
                    break job;
                }
                // Drain-then-exit: accepted handles always complete even
                // when the pool is being torn down.
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.available.wait(queue).unwrap();
            }
        };
        let _busy = BusyGuard::new(inner);
        let kind = queued.request.kind();
        let crec = inner.rec.correlated(queued.job.raw(), &queued.tenant);
        let waited = queued.enqueued.elapsed();
        let wait_us = waited.as_micros() as u64;
        inner.rec.observe("serve.wait_us", wait_us as f64);
        inner.wait_window.record(wait_us as f64);
        crec.instant(
            "job_dequeued",
            &[("kind", kind.name().into()), ("wait_us", wait_us.into())],
        );
        if let Some(deadline) = queued.deadline {
            if waited > deadline {
                inner.rec.incr("serve.jobs_expired", 1);
                inner.tenants.on_expired(&queued.tenant, wait_us);
                crec.instant(
                    "job_expired",
                    &[
                        ("kind", kind.name().into()),
                        ("wait_us", wait_us.into()),
                        ("deadline_us", (deadline.as_micros() as u64).into()),
                    ],
                );
                queued
                    .shared
                    .complete(Err(ServeError::Deadline { waited_us: wait_us }));
                continue;
            }
        }
        let meta = JobMeta {
            job: queued.job,
            tenant: queued.tenant,
            kind,
            crec,
            enqueued: queued.enqueued,
            deadline: queued.deadline,
        };
        let start = Instant::now();
        let result = {
            let _span = meta.crec.span(job_span_name(kind), &[]);
            match queued.request {
                Request::Compile(job) => process_compile(inner, job, &meta).map(Outcome::Compile),
                Request::Sim(job) => process_sim(inner, job, &meta).map(Outcome::Sim),
                Request::Checkpoint(job) => {
                    process_checkpoint(inner, &job, &meta).map(Outcome::Checkpoint)
                }
                Request::Restore(job) => {
                    do_restore(inner, &job.snapshot, &meta).map(Outcome::Restore)
                }
            }
        };
        finish(inner, start, wait_us, result, &queued.shared, &meta);
    }
}

/// Record service latency + outcome counters, charge the tenant, stamp the
/// timings into the outcome, and release the waiting client.
fn finish(
    inner: &ServerInner,
    start: Instant,
    wait_us: u64,
    result: Result<Outcome, ServeError>,
    shared: &Shared,
    meta: &JobMeta,
) {
    let service_us = start.elapsed().as_micros() as u64;
    inner.rec.observe("serve.service_us", service_us as f64);
    inner.service_window.record(service_us as f64);
    let ok = result.is_ok();
    inner
        .tenants
        .on_finished(&meta.tenant, meta.kind, ok, wait_us, service_us);
    match result {
        Ok(mut outcome) => {
            inner.rec.incr("serve.jobs_completed", 1);
            outcome.set_times(wait_us, service_us);
            shared.complete(Ok(outcome));
        }
        Err(e) => {
            inner.rec.incr("serve.jobs_failed", 1);
            meta.crec.instant(
                "job_failed",
                &[
                    ("kind", meta.kind.name().into()),
                    ("error", e.to_string().into()),
                ],
            );
            shared.complete(Err(e));
        }
    }
}

fn process_compile(
    inner: &ServerInner,
    job: CompileJob,
    meta: &JobMeta,
) -> Result<CompileOutcome, ServeError> {
    let fp = DesignFingerprint::new(&job.arch, &job.circuits, &job.options);
    let (design, cache_hit, delta) =
        resolve_design(inner, &job.arch, &job.circuits, &job.options, fp, meta)?;
    let state = SessionState::power_on(&design);
    let session = open_session(inner, design.clone(), meta.tenant.clone(), state);
    Ok(CompileOutcome {
        job: meta.job,
        design,
        session,
        cache_hit,
        delta,
        wait_us: 0,
        service_us: 0,
    })
}

/// Find the design for one compile request `fp` fingerprints — the single
/// path compiles and restores share: exact cache hit → delta compile
/// against a cached near match → cold compile, then insert. Returns the
/// design, whether the exact lookup hit, and the reuse stats when a near
/// match seeded the compile. The artifact is bit-identical on every path.
///
/// The cache lock is NOT held across the compile: two jobs missing on the
/// same key may both compile, but the artifact is deterministic, so either
/// insert is correct and the queue never stalls behind a slow compile. The
/// correlated recorder rides into the compile pipeline, so per-context
/// map/place/route events carry the job's id.
fn resolve_design(
    inner: &ServerInner,
    arch: &ArchSpec,
    circuits: &[Netlist],
    options: &CompileOptions,
    fp: DesignFingerprint,
    meta: &JobMeta,
) -> Result<(Arc<CompiledDesign>, bool, Option<DeltaStats>), ServeError> {
    let key = fp.key();
    let cached = inner.cache.lock().unwrap().get(key);
    let hit = cached.is_some();
    inner.tenants.on_cache(&meta.tenant, hit);
    meta.crec
        .instant("cache_lookup", &[("hit", hit.into()), ("key", key.into())]);
    if let Some(design) = cached {
        inner.rec.incr("serve.cache_hits", 1);
        return Ok((design, true, None));
    }
    inner.rec.incr("serve.cache_misses", 1);
    // On an exact miss, look for a near match: a cached design compiled
    // under the same arch/route options sharing the most per-context
    // netlist hashes. If one exists, only the changed contexts are
    // recompiled; the rest are reused bit-for-bit.
    let near = inner.cache.lock().unwrap().near_match(&fp);
    if near.is_some() {
        inner.rec.incr("serve.cache.near_hit", 1);
    }
    // In-service deadline enforcement: the compile polls this between
    // per-context phases, so a job whose budget lapses mid-service stops
    // instead of burning the worker to the end.
    let enqueued = meta.enqueued;
    let expired = meta.deadline.map(|d| move || enqueued.elapsed() > d);
    let cancel = expired.as_ref().map(|f| f as &(dyn Fn() -> bool + Sync));
    let base = near.as_ref().map(|(base, _)| &**base);
    let built = CompiledDesign::build(arch, circuits, options, fp, &meta.crec, base, cancel);
    let (design, stats) = match built {
        Ok(built) => built,
        Err(CompileError::DeadlineExceeded) => {
            // Serviced-but-expired: distinct from `serve.jobs_expired`
            // (lapsed while queued, never serviced). These jobs also count
            // into `serve.jobs_failed` / the tenant's `failed` bucket, since
            // they consumed service time.
            let waited_us = enqueued.elapsed().as_micros() as u64;
            let deadline_us = meta.deadline.map_or(0, |d| d.as_micros() as u64);
            inner.rec.incr("serve.jobs_expired_in_service", 1);
            meta.crec.instant(
                "job_expired_in_service",
                &[
                    ("waited_us", waited_us.into()),
                    ("deadline_us", deadline_us.into()),
                ],
            );
            return Err(ServeError::Deadline { waited_us });
        }
        Err(e) => return Err(e.into()),
    };
    let delta = near.map(|(base, shared)| {
        inner
            .rec
            .incr("serve.delta.contexts_reused", stats.contexts_reused as u64);
        meta.crec.instant(
            "delta_compile",
            &[
                ("base_key", base.key().into()),
                ("shared_contexts", shared.into()),
                ("contexts_total", stats.contexts_total.into()),
                ("contexts_reused", stats.contexts_reused.into()),
                ("placements_reused", stats.placements_reused.into()),
                ("routes_reused", stats.routes_reused.into()),
            ],
        );
        stats
    });
    let design = Arc::new(design);
    let evicted = inner.cache.lock().unwrap().insert(key, design.clone());
    inner.rec.incr("serve.cache_evictions", evicted);
    Ok((design, false, delta))
}

/// Step a sim job in one kernel call under the session lock. The job's
/// stimulus rows come back as its output rows, rewritten in place, so the
/// worker neither allocates an output row nor frees a stimulus row. Every
/// row's arity is checked before any is stepped: a refused job leaves the
/// session as it found it.
fn process_sim(inner: &ServerInner, job: SimJob, meta: &JobMeta) -> Result<SimOutcome, ServeError> {
    let SimJob {
        session: id,
        context,
        words: mut rows,
        ..
    } = job;
    let session = inner
        .sessions
        .lock()
        .unwrap()
        .get(&id)
        .cloned()
        .ok_or(ServeError::SessionNotFound { session: id })?;
    let mut guard = session.state.lock().unwrap();
    let s = &mut *guard;
    // Defense in depth: submit-time validation already refused out-of-shape
    // stimulus for sessions it could see, but the session table is racy
    // (the session may have been restored with a different design since).
    if context >= session.design.n_contexts() {
        return Err(SimError::ContextNotProgrammed {
            context,
            programmed: session.design.n_contexts(),
        }
        .into());
    }
    let kernel = session.design.kernel(context);
    if let Some(row) = rows.iter().find(|row| row.len() != kernel.n_inputs()) {
        return Err(SimError::InputArity {
            context,
            expected: kernel.n_inputs(),
            got: row.len(),
        }
        .into());
    }
    kernel.step_rows(&mut rows, &mut s.regs[context], &mut s.scratch);
    // Lane-cycles: one queue word steps all 64 stimulus lanes one cycle.
    let cycles = (rows.len() * LANES) as u64;
    s.active_context = context;
    s.words_stepped += rows.len() as u64;
    s.lane_cycles += cycles;
    inner.rec.incr("serve.sim_cycles", cycles);
    inner.tenants.on_sim_cycles(&meta.tenant, cycles);
    meta.crec.instant(
        "sim_batch",
        &[
            ("context", context.into()),
            ("cycles", rows.len().into()),
            ("lane_cycles", cycles.into()),
        ],
    );
    Ok(SimOutcome {
        job: meta.job,
        outputs: rows,
        wait_us: 0,
        service_us: 0,
    })
}

fn process_checkpoint(
    inner: &ServerInner,
    job: &CheckpointJob,
    meta: &JobMeta,
) -> Result<CheckpointOutcome, ServeError> {
    let snapshot = do_checkpoint(inner, job.session, meta.job)?;
    Ok(CheckpointOutcome {
        job: meta.job,
        session: job.session,
        snapshot,
        wait_us: 0,
        service_us: 0,
    })
}

/// The checkpoint core shared by the synchronous
/// [`Server::checkpoint_session`] and the queued [`CheckpointJob`] path:
/// serialize the session's full compile request plus its mutable state,
/// behind the session's own lock.
fn do_checkpoint(
    inner: &ServerInner,
    id: SessionId,
    job: JobId,
) -> Result<SessionSnapshot, ServeError> {
    let session = inner
        .sessions
        .lock()
        .unwrap()
        .get(&id)
        .cloned()
        .ok_or(ServeError::SessionNotFound { session: id })?;
    let snapshot = {
        let state = session.state.lock().unwrap();
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            source_session: id.raw(),
            design_key: session.design.key(),
            switch_fp: session.design.fingerprint(),
            arch: session.design.arch().clone(),
            circuits: session.design.circuits().to_vec(),
            options: *session.design.options(),
            tenant: session.tenant.clone(),
            active_context: state.active_context,
            regs: state.regs.clone(),
            words_stepped: state.words_stepped,
            lane_cycles: state.lane_cycles,
        }
    };
    inner.rec.incr("serve.checkpoints", 1);
    let crec = inner.rec.correlated(job.raw(), &session.tenant);
    crec.instant(
        "session_checkpoint",
        &[
            ("session", id.raw().into()),
            ("contexts", snapshot.regs.len().into()),
            ("words_stepped", snapshot.words_stepped.into()),
        ],
    );
    Ok(snapshot)
}

/// The restore core shared by the synchronous [`Server::restore_session`]
/// and the queued [`RestoreJob`]. The fingerprint is recomputed from the
/// snapshot's carried request (authoritative — the recorded `design_key` is
/// never trusted across builds) and resolved through [`resolve_design`],
/// exactly as a compile of that request would be. The restored register
/// state is validated against the resolved design before the session goes
/// live.
fn do_restore(
    inner: &ServerInner,
    snapshot: &SessionSnapshot,
    meta: &JobMeta,
) -> Result<RestoreOutcome, ServeError> {
    let fp = snapshot.fingerprint();
    let key = fp.key();
    let refingerprinted = key != snapshot.design_key;
    let (design, hit, delta) = resolve_design(
        inner,
        &snapshot.arch,
        &snapshot.circuits,
        &snapshot.options,
        fp,
        meta,
    )?;
    let recompiled = !hit;
    // The snapshot's register state must fit the artifact its own request
    // resolves to on this build.
    if design.n_contexts() != snapshot.regs.len() {
        return Err(ServeError::SnapshotMismatch {
            detail: format!(
                "design programs {} contexts, snapshot carries {}",
                design.n_contexts(),
                snapshot.regs.len()
            ),
        });
    }
    for (c, regs) in snapshot.regs.iter().enumerate() {
        let expected = design.kernel(c).n_regs();
        if regs.len() != expected {
            return Err(ServeError::SnapshotMismatch {
                detail: format!(
                    "context {c}: {} register words, design has {} registers",
                    regs.len(),
                    expected
                ),
            });
        }
    }
    // Within one build, an unchanged design key must mean an unchanged
    // routed artifact — the snapshot's switch fingerprint is the witness.
    if !refingerprinted && design.fingerprint() != snapshot.switch_fp {
        return Err(ServeError::SnapshotMismatch {
            detail: "switch fingerprint diverged under an unchanged design key".to_string(),
        });
    }
    let state = SessionState {
        regs: snapshot.regs.clone(),
        scratch: KernelScratch::new(),
        active_context: snapshot.active_context,
        words_stepped: snapshot.words_stepped,
        lane_cycles: snapshot.lane_cycles,
    };
    let session = open_session(inner, design.clone(), snapshot.tenant.clone(), state);
    inner.rec.incr("serve.restores", 1);
    if recompiled {
        inner.rec.incr("serve.restore.recompiles", 1);
        meta.crec.instant(
            "session_restore_recompiled",
            &[
                ("design_key", key.into()),
                ("delta", delta.is_some().into()),
            ],
        );
    }
    meta.crec.instant(
        "session_restore",
        &[
            ("source_session", snapshot.source_session.into()),
            ("session", session.raw().into()),
            ("recompiled", recompiled.into()),
            ("refingerprinted", refingerprinted.into()),
        ],
    );
    Ok(RestoreOutcome {
        job: meta.job,
        session,
        design,
        recompiled,
        delta,
        refingerprinted,
        wait_us: 0,
        service_us: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_types_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Server>();
        assert_send_sync::<Arc<CompiledDesign>>();
        fn assert_send<T: Send>() {}
        assert_send::<JobHandle<CompileOutcome>>();
        assert_send::<JobHandle<SimOutcome>>();
        assert_send::<JobHandle<Outcome>>();
    }

    /// A sim job with one bad row is refused before any row is stepped, so
    /// the session keeps the registers and counters its last good job left.
    /// Submit-time validation refuses such a job at the door, so the test
    /// hands it to the worker's path directly.
    #[test]
    fn a_job_with_one_bad_row_leaves_the_session_unchanged() {
        let server = Server::new(ServeConfig::default().with_workers(1));
        let circuits = vec![mcfpga_netlist::library::counter(4)];
        let options = CompileOptions::default().with_parallel(false);
        let compiled = server
            .submit_compile(
                CompileJob::new(ArchSpec::paper_default(), circuits).with_options(options),
            )
            .expect("accepted")
            .wait()
            .expect("compiles");
        let n_in = compiled.design.kernel(0).n_inputs();
        let good = SimJob::new(compiled.session, 0, vec![vec![!0; n_in]; 5]);
        server
            .submit_sim(good)
            .expect("accepted")
            .wait()
            .expect("steps");
        let session = server.inner.sessions.lock().unwrap()[&compiled.session].clone();
        let state = |session: &Session| {
            let s = session.state.lock().unwrap();
            (s.regs.clone(), s.words_stepped, s.lane_cycles)
        };
        let before = state(&session);
        assert_eq!(before.1, 5);
        assert!(before.0[0].iter().any(|&w| w != 0), "the counter moved");
        let mut rows = vec![vec![!0; n_in]; 12];
        rows[9].push(0);
        let meta = JobMeta {
            job: JobId(u64::MAX),
            tenant: DEFAULT_TENANT.to_string(),
            kind: JobKind::Sim,
            crec: Recorder::disabled(),
            enqueued: Instant::now(),
            deadline: None,
        };
        let result = process_sim(&server.inner, SimJob::new(compiled.session, 0, rows), &meta);
        match result {
            Err(ServeError::Job(e)) => assert!(
                matches!(e.as_sim(), Some(SimError::InputArity { got, .. }) if *got == n_in + 1),
                "{e}"
            ),
            other => panic!("expected an input-arity error, got {other:?}"),
        }
        assert_eq!(state(&session), before);
    }

    #[test]
    fn session_ids_are_process_global() {
        let a = next_session_id();
        let b = next_session_id();
        assert!(b.raw() > a.raw());
    }
}
