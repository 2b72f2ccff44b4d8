//! The four served workloads. Each builds its inputs from the seed, runs a
//! closed loop of one kind of op from one client thread, and re-checks
//! outputs after timing; every miss counts into `failed`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcfpga_arch::ArchSpec;
use mcfpga_netlist::{perturb_netlist, random_netlist, Netlist, RandomNetlistParams};
use mcfpga_obs::Recorder;
use mcfpga_serve::{
    CompileJob, CompileOutcome, CompiledDesign, JobHandle, ServeConfig, Server, SessionId,
    ShardRouter, SimJob, SimOutcome,
};
use mcfpga_sim::{CompileOptions, MultiDevice};

use crate::spans::{SpanId, Tracer, NONE};
use crate::stats::Samples;

/// Contexts per design.
pub const CONTEXTS: usize = 4;
/// Per-context netlist shape: 8 inputs, 60 gates (10% DFF), 8 outputs.
const PARAMS: RandomNetlistParams = RandomNetlistParams {
    n_inputs: 8,
    n_gates: 60,
    n_outputs: 8,
    dff_fraction: 0.10,
};
/// Gate-substitution probability of a `delta` variant: the paper's 5% point.
const CHANGE_RATE: f64 = 0.05;
/// Cycles per `sim` job: enough that kernel evaluation, not the queue
/// handoff, dominates a job.
pub const SIM_CYCLES: usize = 1024;
/// Sessions in `sim`, each on its own design, so that one run averages
/// over many designs' kernel sizes instead of inheriting one design's.
const SIM_SESSIONS: usize = 16;
/// `sim` jobs in flight, on consecutive sessions round-robin.
const SIM_INFLIGHT: usize = 4;
/// Pre-generated stimulus blocks in `sim`, shared by every design.
const SIM_BLOCKS: u64 = 8;
/// Jobs before timing in `sim`: two on every session.
const SIM_WARMUP_JOBS: u64 = 2 * SIM_SESSIONS as u64;
/// Threads of the after-timing `sim` replay: one per vCPU of a 2-vCPU host.
const REPLAY_THREADS: usize = 2;
/// Sessions in `migrate`, one distinct design each.
const MIGRATE_SESSIONS: usize = 8;
/// Shards in `migrate`.
const SHARDS: usize = 2;
/// Sim jobs each `migrate` session and its twin run during setup.
const MIGRATE_SETUP_JOBS: u64 = 3;
/// Cycles per sim job in `migrate` setup and checks.
const MIGRATE_CYCLES: usize = 32;
/// The job number of the after-timing twin check.
const CHECK_JOB: u64 = 1 << 20;
/// Cold compiles before timing in `compile`.
const COMPILE_WARMUP: u64 = 8;
/// Delta ops before timing: more than the server's 32-entry cache holds, so
/// timed ops scan a full cache and evict on every insert.
const DELTA_WARMUP: u64 = 40;
/// Served artifacts kept for the after-timing comparison with a direct
/// compile of the same request.
const KEEP: usize = 8;
/// About one op in this many is kept (seeded), up to `KEEP`.
const KEEP_ONE_IN: u64 = 64;
/// Design indices from here on are warm-up ops, apart from timed ones.
const WARMUP_INDEX: u64 = 1 << 40;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Delta,
    Sim,
    Migrate,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Delta,
        Workload::Sim,
        Workload::Migrate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Delta => "delta",
            Workload::Sim => "sim",
            Workload::Migrate => "migrate",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// When a timed loop stops: at a wall-clock deadline or after `max_ops`.
pub struct Budget {
    until: Instant,
    max_ops: u64,
}

impl Budget {
    pub fn new(seconds: f64, max_ops: u64) -> Budget {
        Budget {
            until: Instant::now() + Duration::from_secs_f64(seconds),
            max_ops,
        }
    }

    /// Whether op number `started` (0-based) may start.
    fn allows(&self, started: u64) -> bool {
        started < self.max_ops && Instant::now() < self.until
    }
}

pub fn arch() -> ArchSpec {
    ArchSpec::paper_default()
}

/// Serial per-context compile: the one serve worker is the only
/// parallelism, which keeps the load within a 2-vCPU host.
pub fn options() -> CompileOptions {
    CompileOptions::default().with_parallel(false)
}

pub fn config() -> ServeConfig {
    ServeConfig::default().with_workers(1)
}

/// SplitMix64 finalizer: decorrelates seeds and indices.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Design `index` of the stream seeded by `seed`: `CONTEXTS` distinct
/// random netlists.
pub fn design(seed: u64, index: u64) -> Vec<Netlist> {
    (0..CONTEXTS as u64)
        .map(|c| random_netlist(PARAMS, mix(mix(seed) ^ mix(index) ^ c)))
        .collect()
}

fn fold_words(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, &w| (h ^ w).wrapping_mul(FNV_PRIME))
}

fn hash_rows(rows: &[Vec<u64>]) -> u64 {
    rows.iter().fold(FNV_OFFSET, |h, r| fold_words(h, r))
}

/// Seeded 5% perturbations of one context of a base design. Each differs
/// from the base and from every variant drawn before: a raw perturbation is
/// often a no-op or a repeat, and a repeat would hit the cache instead of
/// taking the delta path.
struct Variants {
    base: Vec<Netlist>,
    seed: u64,
    draws: u64,
    seen: HashSet<u64>,
}

impl Variants {
    fn new(base: Vec<Netlist>, seed: u64) -> Variants {
        Variants {
            base,
            seed,
            draws: 0,
            seen: HashSet::new(),
        }
    }

    /// The base with context `slot` swapped for a fresh perturbation.
    fn next(&mut self, slot: usize) -> Vec<Netlist> {
        loop {
            self.draws += 1;
            let ctx = perturb_netlist(
                &self.base[slot],
                CHANGE_RATE,
                mix(self.seed ^ mix(self.draws)),
            );
            if ctx.gates() == self.base[slot].gates() {
                continue;
            }
            let mut h = DefaultHasher::new();
            (slot, ctx.gates()).hash(&mut h);
            if self.seen.insert(h.finish()) {
                let mut variant = self.base.clone();
                variant[slot] = ctx;
                return variant;
            }
        }
    }
}

/// A workload's state between setup and exit.
pub trait Bench {
    /// Closed loop, one client thread: run ops until the budget is spent.
    fn run(&mut self, budget: &Budget, tracer: &mut Tracer) -> Samples;
    /// Checks made after timing; returns how many failed.
    fn verify(&mut self) -> u64;
    /// (base, 5% variant) requests drawn from this workload's inputs, for
    /// the traced run's direct layer replay.
    fn layer_inputs(&mut self, n: usize) -> Vec<(Vec<Netlist>, Vec<Netlist>)>;
}

/// Build a workload's state: inputs from `seed`, server start, warm-up.
pub fn setup(workload: Workload, seed: u64, rec: &Recorder) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::Compile => Box::new(CompileBench::setup(seed, rec, false)?),
        Workload::Delta => Box::new(CompileBench::setup(seed, rec, true)?),
        Workload::Sim => Box::new(SimBench::setup(seed, rec)?),
        Workload::Migrate => Box::new(MigrateBench::setup(seed, rec)?),
    })
}

fn warmed(samples: &Samples, what: &str) -> Result<(), String> {
    if samples.failed == 0 {
        Ok(())
    } else {
        Err(format!(
            "{what} warm-up: {} of {} ops failed",
            samples.failed, samples.attempted
        ))
    }
}

/// One op at a time until the budget is spent. A run may go on in several
/// loops on the same state: `first` is the index of this loop's first op,
/// and `op` gets each op's index.
fn closed_loop(budget: &Budget, first: u64, mut op: impl FnMut(u64, &mut Samples)) -> Samples {
    let mut samples = Samples::new();
    while budget.allows(samples.attempted) {
        op(first + samples.attempted, &mut samples);
    }
    samples.finish();
    samples
}

/// Submit one compile request and wait for it, a span around each call.
/// `path_ok` says whether the outcome took the path the workload demands.
fn compile_op(
    server: &Server,
    circuits: Vec<Netlist>,
    index: u64,
    tracer: &mut Tracer,
    samples: &mut Samples,
    path_ok: impl Fn(&CompileOutcome) -> bool,
) -> Option<Arc<CompiledDesign>> {
    let job = CompileJob::new(arch(), circuits).with_options(options());
    let start = Instant::now();
    let root = tracer.begin("client.compile", NONE, index);
    let outcome = tracer
        .time("serve.submit", root, index, || server.submit_compile(job))
        .map_err(|e| e.to_string())
        .and_then(|h| {
            tracer
                .time("serve.wait", root, index, || h.wait())
                .map_err(|e| e.to_string())
        });
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            tracer.end(root);
            eprintln!("compile op {index}: {e}");
            samples.record_error(start.elapsed());
            return None;
        }
    };
    let ok = tracer.time("check", root, index, || {
        o.design.n_contexts() == CONTEXTS && path_ok(&o)
    });
    tracer.end(root);
    samples.record(start.elapsed(), o.wait_us, o.service_us, ok);
    // Ops never reuse a session; closing it lets evicted designs go.
    server.close_session(o.session);
    Some(o.design)
}

/// Served artifacts that differ from a direct cold compile of the same
/// request: delta == cold (and cached == cold) is the contract.
fn cold_mismatches(kept: &[(Vec<Netlist>, Arc<CompiledDesign>)]) -> u64 {
    kept.iter()
        .filter(
            |(circuits, served)| match CompiledDesign::compile(&arch(), circuits, &options()) {
                Ok(cold) => {
                    cold.fingerprint() != served.fingerprint()
                        || cold.n_contexts() != served.n_contexts()
                        || (0..cold.n_contexts()).any(|c| {
                            cold.kernel(c) != served.kernel(c)
                                || cold.initial_registers(c) != served.initial_registers(c)
                        })
                }
                Err(e) => {
                    eprintln!("direct compile: {e}");
                    true
                }
            },
        )
        .count() as u64
}

/// `compile` and `delta`: one compile request per op. `compile` sends
/// never-seen designs that must miss the cache and compile cold; `delta`
/// sends the cached base with one context (rotating) perturbed, which must
/// be a near hit reusing the other contexts.
struct CompileBench {
    server: Server,
    seed: u64,
    /// `Some` for `delta`: where its requests come from.
    variants: Option<Variants>,
    kept: Vec<(Vec<Netlist>, Arc<CompiledDesign>)>,
    /// Timed ops so far.
    done: u64,
}

impl CompileBench {
    fn setup(seed: u64, rec: &Recorder, delta: bool) -> Result<CompileBench, String> {
        let server = Server::with_recorder(config(), rec);
        let mut warm = Samples::new();
        let mut variants = None;
        let mut warmup = COMPILE_WARMUP;
        if delta {
            // The base every variant is one context away from, cached first.
            let base = design(seed, 0);
            let cold = |o: &CompileOutcome| !o.cache_hit && o.delta.is_none();
            let tracer = &mut Tracer::disabled();
            compile_op(&server, base.clone(), WARMUP_INDEX, tracer, &mut warm, cold);
            variants = Some(Variants::new(base, seed));
            warmup = DELTA_WARMUP;
        }
        let mut bench = CompileBench {
            server,
            seed,
            variants,
            kept: Vec::new(),
            done: 0,
        };
        for i in 1..=warmup {
            bench.op(WARMUP_INDEX + i, &mut Tracer::disabled(), &mut warm);
        }
        warmed(&warm, if delta { "delta" } else { "compile" })?;
        Ok(bench)
    }

    fn op(&mut self, index: u64, tracer: &mut Tracer, samples: &mut Samples) {
        let circuits = match &mut self.variants {
            None => design(self.seed, index),
            Some(v) => v.next(index as usize % CONTEXTS),
        };
        let keep = self.kept.len() < KEEP
            && (self.kept.is_empty() || mix(self.seed ^ mix(index)).is_multiple_of(KEEP_ONE_IN));
        let request = keep.then(|| circuits.clone());
        let delta = self.variants.is_some();
        let path_ok = move |o: &CompileOutcome| {
            !o.cache_hit
                && match o.delta {
                    None => !delta,
                    Some(d) => delta && d.contexts_reused == CONTEXTS - 1,
                }
        };
        let design = compile_op(&self.server, circuits, index, tracer, samples, path_ok);
        if let (Some(request), Some(design)) = (request, design) {
            self.kept.push((request, design));
        }
    }
}

impl Bench for CompileBench {
    fn run(&mut self, budget: &Budget, tracer: &mut Tracer) -> Samples {
        let samples = closed_loop(budget, self.done, |index, samples| {
            self.op(index, tracer, samples)
        });
        self.done += samples.attempted;
        samples
    }

    fn verify(&mut self) -> u64 {
        cold_mismatches(&self.kept)
    }

    fn layer_inputs(&mut self, n: usize) -> Vec<(Vec<Netlist>, Vec<Netlist>)> {
        (0..n)
            .map(|i| match &mut self.variants {
                Some(v) => (v.base.clone(), v.next(i % CONTEXTS)),
                None => {
                    let base = design(self.seed, i as u64);
                    let variant = Variants::new(base.clone(), self.seed).next(i % CONTEXTS);
                    (base, variant)
                }
            })
            .collect()
    }
}

/// `sim`: `SIM_SESSIONS` sessions, each on its own design, `SIM_INFLIGHT`
/// jobs in flight on consecutive sessions. Every job's outputs are hashed
/// and replayed after timing.
struct SimBench {
    server: Server,
    seed: u64,
    /// Per session: the design it runs and the session.
    circuits: Vec<Vec<Netlist>>,
    sessions: Vec<SessionId>,
    /// Per session and context: the kernel's input count.
    inputs: Vec<[usize; CONTEXTS]>,
    /// Stimulus `blocks[block][cycle]`, `PARAMS.n_inputs` words per cycle;
    /// a job takes the first words its context reads.
    blocks: Vec<Vec<Vec<u64>>>,
    /// Per session: its jobs' outputs, hashed in job order.
    log: Vec<Chain>,
    /// Jobs submitted so far: the next job goes to session `started %
    /// SIM_SESSIONS`.
    started: u64,
}

/// Jobs done on one session and a hash chained over their outputs. A fixed
/// size, so a long run's log does not grow the peak RSS the run reports.
#[derive(Clone, Copy)]
struct Chain {
    jobs: usize,
    hash: u64,
}

impl Chain {
    const EMPTY: Chain = Chain {
        jobs: 0,
        hash: FNV_OFFSET,
    };

    /// Append one job, by the hash of its outputs.
    fn push(&mut self, job_hash: u64) {
        self.jobs += 1;
        self.hash = fold_words(self.hash, &[job_hash]);
    }
}

struct InFlight {
    session: usize,
    req: u64,
    start: Instant,
    root: SpanId,
    handle: Result<JobHandle<SimOutcome>, String>,
}

impl SimBench {
    fn setup(seed: u64, rec: &Recorder) -> Result<SimBench, String> {
        let server = Server::with_recorder(config(), rec);
        let (mut circuits, mut sessions, mut inputs) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..SIM_SESSIONS as u64 {
            let netlists = design(seed, s);
            let o = server
                .submit_compile(CompileJob::new(arch(), netlists.clone()).with_options(options()))
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?;
            if o.cache_hit {
                return Err(format!("sim setup: design {s} hit the cache"));
            }
            let n_in: [usize; CONTEXTS] = std::array::from_fn(|c| o.design.kernel(c).n_inputs());
            if n_in.iter().any(|&n| n > PARAMS.n_inputs) {
                return Err(format!("sim setup: design {s} reads {n_in:?} inputs"));
            }
            circuits.push(netlists);
            sessions.push(o.session);
            inputs.push(n_in);
        }
        let blocks = (0..SIM_BLOCKS)
            .map(|b| {
                (0..SIM_CYCLES as u64)
                    .map(|t| {
                        (0..PARAMS.n_inputs as u64)
                            .map(|i| mix(seed ^ mix(b << 32 | t << 8 | i)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut bench = SimBench {
            server,
            seed,
            circuits,
            sessions,
            inputs,
            blocks,
            log: vec![Chain::EMPTY; SIM_SESSIONS],
            started: 0,
        };
        let warm = bench.run(&Budget::new(60.0, SIM_WARMUP_JOBS), &mut Tracer::disabled());
        warmed(&warm, "sim")?;
        Ok(bench)
    }

    /// Context and stimulus of session `s`'s job `k`: contexts rotate,
    /// blocks are seeded.
    fn job(&self, s: usize, k: usize) -> (usize, Vec<Vec<u64>>) {
        let block = mix(self.seed ^ mix((s as u64) << 32 | k as u64)) % SIM_BLOCKS;
        let context = (s + k) % CONTEXTS;
        let n_in = self.inputs[s][context];
        let words = self.blocks[block as usize]
            .iter()
            .map(|row| row[..n_in].to_vec())
            .collect();
        (context, words)
    }

    /// Submit the next job, to the next session round-robin.
    fn submit(&mut self, tracer: &mut Tracer) -> InFlight {
        let (s, req) = (self.started as usize % SIM_SESSIONS, self.started);
        self.started += 1;
        // At most one job in flight per session (SIM_INFLIGHT <=
        // SIM_SESSIONS), so its number is the jobs logged.
        let (context, words) = self.job(s, self.log[s].jobs);
        let start = Instant::now();
        let root = tracer.begin("client.sim", NONE, req);
        let handle = tracer
            .time("serve.submit", root, req, || {
                self.server
                    .submit_sim(SimJob::new(self.sessions[s], context, words))
            })
            .map_err(|e| e.to_string());
        InFlight {
            session: s,
            req,
            start,
            root,
            handle,
        }
    }

    /// Replay session `s`'s jobs. Returns 0 if their outputs chain to the
    /// logged hash, and otherwise the session's job count: one divergence
    /// fails every job of the session.
    fn replay(&self, s: usize) -> u64 {
        let want = self.log[s];
        let jobs = want.jobs as u64;
        let mut device = match MultiDevice::compile_opts(
            &arch(),
            &self.circuits[s],
            &options(),
            &Recorder::disabled(),
        ) {
            Ok(device) => device,
            Err(e) => {
                eprintln!("sim replay compile: {e}");
                return jobs;
            }
        };
        let mut out = Vec::new();
        let mut chain = Chain::EMPTY;
        for k in 0..want.jobs {
            let (context, stimulus) = self.job(s, k);
            let mut h = FNV_OFFSET;
            let replayed = device.try_switch_context(context).is_ok()
                && stimulus.iter().all(|words| {
                    let stepped = device.try_step_batch_into(words, &mut out).is_ok();
                    h = fold_words(h, &out);
                    stepped
                });
            if !replayed {
                return jobs;
            }
            chain.push(h);
        }
        if chain.hash == want.hash {
            0
        } else {
            jobs
        }
    }
}

impl Bench for SimBench {
    fn run(&mut self, budget: &Budget, tracer: &mut Tracer) -> Samples {
        let mut samples = Samples::new();
        let mut started = 0u64;
        let mut inflight = VecDeque::with_capacity(SIM_INFLIGHT);
        while inflight.len() < SIM_INFLIGHT && budget.allows(started) {
            inflight.push_back(self.submit(tracer));
            started += 1;
        }
        while let Some(job) = inflight.pop_front() {
            let outcome = job.handle.and_then(|h| {
                tracer
                    .time("serve.wait", job.root, job.req, || h.wait())
                    .map_err(|e| e.to_string())
            });
            match outcome {
                Ok(o) => {
                    let check = tracer.begin("check", job.root, job.req);
                    let ok = o.outputs.len() == SIM_CYCLES;
                    self.log[job.session].push(hash_rows(&o.outputs));
                    tracer.end(check);
                    tracer.end(job.root);
                    samples.record(job.start.elapsed(), o.wait_us, o.service_us, ok);
                }
                Err(e) => {
                    eprintln!("sim job {}: {e}", job.req);
                    // Keeps job numbering aligned; the replay flags it too.
                    self.log[job.session].push(0);
                    tracer.end(job.root);
                    samples.record_error(job.start.elapsed());
                }
            }
            if budget.allows(started) {
                inflight.push_back(self.submit(tracer));
                started += 1;
            }
        }
        samples.finish();
        samples
    }

    /// Replay every job of every session on a private device — same
    /// request, same power-on state, no server — and compare output hashes.
    /// Sessions are independent, so the replay runs on `REPLAY_THREADS`.
    fn verify(&mut self) -> u64 {
        let this = &*self;
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..REPLAY_THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        (t..SIM_SESSIONS)
                            .step_by(REPLAY_THREADS)
                            .map(|s| this.replay(s))
                            .sum::<u64>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a replay thread panicked"))
                .sum()
        })
    }

    fn layer_inputs(&mut self, n: usize) -> Vec<(Vec<Netlist>, Vec<Netlist>)> {
        self.circuits
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, base)| {
                let variant = Variants::new(base.clone(), self.seed).next(i % CONTEXTS);
                (base.clone(), variant)
            })
            .collect()
    }
}

/// `migrate`: `MIGRATE_SESSIONS` sessions on distinct designs behind a
/// 2-shard router, each with a never-migrated twin. Every op moves one
/// session (round-robin) to the other shard.
struct MigrateBench {
    router: ShardRouter,
    seed: u64,
    designs: Vec<Arc<CompiledDesign>>,
    sessions: Vec<SessionId>,
    owners: Vec<usize>,
    twins: Vec<SessionId>,
    /// Timed ops so far.
    done: u64,
}

impl MigrateBench {
    fn setup(seed: u64, rec: &Recorder) -> Result<MigrateBench, String> {
        let router = ShardRouter::with_recorder(SHARDS, config(), rec);
        let compile = |circuits: Vec<Netlist>| -> Result<CompileOutcome, String> {
            router
                .submit(CompileJob::new(arch(), circuits).with_options(options()))
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?
                .into_compile()
                .ok_or_else(|| "not a compile outcome".to_string())
        };
        let (mut designs, mut sessions, mut twins) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..MIGRATE_SESSIONS as u64 {
            let circuits = design(seed, i);
            let first = compile(circuits.clone())?;
            // The twin hits the cache on the same shard; it never moves.
            let twin = compile(circuits)?;
            if first.cache_hit || !twin.cache_hit {
                return Err(format!("migrate setup: design {i} cache path"));
            }
            sessions.push(first.session);
            twins.push(twin.session);
            designs.push(first.design);
        }
        let mut bench = MigrateBench {
            router,
            seed,
            designs,
            sessions,
            owners: Vec::new(),
            twins,
            done: 0,
        };
        for job in 0..MIGRATE_SETUP_JOBS {
            for i in 0..MIGRATE_SESSIONS {
                let a = bench.sim(bench.sessions[i], i, job)?;
                let b = bench.sim(bench.twins[i], i, job)?;
                if a != b {
                    return Err(format!("migrate setup: session {i} differs from its twin"));
                }
            }
        }
        // Bounce every session to the other shard: its restore there
        // compiles, so afterwards both shards' caches hold every design and
        // every timed migration is an exact hit.
        for i in 0..MIGRATE_SESSIONS {
            let session = bench.sessions[i];
            let owner = bench
                .router
                .session_owner(session)
                .ok_or("migrate setup: session has no owner")?;
            let m = bench
                .router
                .migrate_session(session, (owner + 1) % SHARDS)
                .map_err(|e| e.to_string())?;
            bench.sessions[i] = m.new_session;
            bench.owners.push(m.to);
        }
        Ok(bench)
    }

    /// Job `job` of session slot `i`: seeded stimulus on a rotating
    /// context, identical for a session and its twin.
    fn sim(&self, session: SessionId, i: usize, job: u64) -> Result<Vec<Vec<u64>>, String> {
        let context = job as usize % CONTEXTS;
        let n_in = self.designs[i].kernel(context).n_inputs() as u64;
        let words = (0..MIGRATE_CYCLES as u64)
            .map(|t| {
                (0..n_in)
                    .map(|x| mix(self.seed ^ mix((i as u64) << 48 | job << 24 | t << 8 | x)))
                    .collect()
            })
            .collect();
        self.router
            .submit(SimJob::new(session, context, words))
            .map_err(|e| e.to_string())?
            .wait()
            .map_err(|e| e.to_string())?
            .into_sim()
            .map(|o| o.outputs)
            .ok_or_else(|| "not a sim outcome".to_string())
    }
}

impl Bench for MigrateBench {
    fn run(&mut self, budget: &Budget, tracer: &mut Tracer) -> Samples {
        let samples = closed_loop(budget, self.done, |index, samples| {
            let i = index as usize % MIGRATE_SESSIONS;
            let to = (self.owners[i] + 1) % SHARDS;
            let start = Instant::now();
            let root = tracer.begin("client.migrate", NONE, index);
            let moved = tracer.time("router.migrate_session", root, index, || {
                self.router.migrate_session(self.sessions[i], to)
            });
            tracer.end(root);
            match moved {
                // Both caches hold the design: a recompile is the wrong path.
                Ok(m) => {
                    let ok = !m.recompiled && m.to == to;
                    samples.record(start.elapsed(), 0, m.migrate_us, ok);
                    self.sessions[i] = m.new_session;
                    self.owners[i] = m.to;
                }
                Err(e) => {
                    eprintln!("migration {index}: {e}");
                    samples.record_error(start.elapsed());
                }
            }
        });
        self.done += samples.attempted;
        samples
    }

    /// Restore == uninterrupted run: each migrated session must answer a
    /// fresh job exactly as its never-migrated twin, and hold the same state.
    fn verify(&mut self) -> u64 {
        (0..MIGRATE_SESSIONS)
            .filter(|&i| {
                let outputs = (
                    self.sim(self.sessions[i], i, CHECK_JOB),
                    self.sim(self.twins[i], i, CHECK_JOB),
                );
                let states = (
                    self.router.checkpoint(self.sessions[i]),
                    self.router.checkpoint(self.twins[i]),
                );
                let same_outputs = matches!(outputs, (Ok(a), Ok(b)) if a == b);
                let same_state = matches!(states, (Ok(a), Ok(b))
                    if a.regs == b.regs
                        && a.active_context == b.active_context
                        && a.words_stepped == b.words_stepped);
                !(same_outputs && same_state)
            })
            .count() as u64
    }

    fn layer_inputs(&mut self, n: usize) -> Vec<(Vec<Netlist>, Vec<Netlist>)> {
        (0..n.min(MIGRATE_SESSIONS))
            .map(|i| {
                let base = design(self.seed, i as u64);
                let variant = Variants::new(base.clone(), self.seed).next(i % CONTEXTS);
                (base, variant)
            })
            .collect()
    }
}
