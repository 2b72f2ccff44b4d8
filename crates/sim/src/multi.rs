#![allow(clippy::needless_range_loop)]
//! The multi-context fabric runtime. Two compile front ends build one
//! compiled image, and one set of execution code runs it.
//!
//! * **Independent** ([`MultiDevice::compile`] and friends): one unrelated
//!   circuit per context, time-multiplexed on one fabric — the paper's
//!   motivating DPGA use case ("sequentially configured as different
//!   processors in real time"). Each context is mapped, placed and routed on
//!   its own; the physical logic blocks then collect, per site, the truth
//!   tables each context put there. Routing switches genuinely differ
//!   between contexts, so the extracted configuration columns exhibit the
//!   real mixed statistics of Table 1.
//! * **Aligned** ([`MultiDevice::compile_aligned`], in [`crate::device`]):
//!   the contexts share one LUT cover, so LUT position `i` has the same
//!   inputs in every context. One placement and one route serve every
//!   context, and planes merge wherever contexts share logic (Figs. 13–14).
//!
//! Both produce the same image: per-context mapped netlists, a per-context
//! LUT → (block, slot) map into one dense logic-block vector, per-context
//! routing and the switch usage, and a per-context register-file index.
//! Register state lives only as 64-lane words per register file. The
//! compiled kernel steps all lanes; the scalar step walks the logic-block
//! hardware model on lane 0 and writes its next state back to every lane —
//! the reference the kernel is held to, injected faults included.

use mcfpga_arch::{ArchSpec, ContextId, LutMode};
use mcfpga_config::{Bitstream, ColumnSetStats};
use mcfpga_lut::{AdaptiveLogicBlock, LocalSizeController, SizeControl, TruthTable};
use mcfpga_map::{map_netlist, MapError, MappedNetlist, MappedSource};
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_place::{
    lb_of_lut, place_delta, place_with, AnnealOptions, Placement, PlacementProblem,
};
use mcfpga_route::{
    nets_from_placement, route_context_delta, route_context_with, switch_columns, RouteOptions,
    RoutedContext, RoutingGraph, SwitchUsage,
};

use crate::device::{CompileError, CompileReport};
use crate::kernel::{self, CompiledKernel, KernelScratch, LANES};
use crate::observe::{
    self, ActivityCensus, ActivityReport, ContextProbes, ProbeCapture, ProbeSet, ReconfigEnergy,
};
use serde::{Deserialize, Serialize};

/// Compile-pipeline knobs.
///
/// Marked `#[non_exhaustive]`: construct via [`CompileOptions::default`]
/// and the `with_*` builders so future knobs stay non-breaking.
///
/// ```
/// use mcfpga_sim::CompileOptions;
/// let opts = CompileOptions::default().with_parallel(false);
/// assert!(!opts.parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Fan the per-context map/place/route work out across scoped threads
    /// (one per programmed context). Contexts are fully independent — each
    /// gets its own derived annealing seed and its own routing pass on the
    /// shared (immutable) graph — and results are merged back in context
    /// order, so the compiled device is bit-for-bit identical to the serial
    /// path.
    pub parallel: bool,
    /// Router knobs applied to every context.
    pub route: RouteOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            parallel: true,
            route: RouteOptions::default(),
        }
    }
}

impl CompileOptions {
    /// Fan the per-context compile out across scoped threads (default on).
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Router knobs applied to every context.
    pub fn with_route(mut self, route: RouteOptions) -> Self {
        self.route = route;
        self
    }

    /// Worker threads the compile pipeline will actually use for `n_tasks`
    /// independent per-context jobs: 1 when serial, otherwise capped by both
    /// the machine's available parallelism and the task count. The
    /// `flow.parallelism` gauge reports exactly this value.
    pub fn resolved_workers(&self, n_tasks: usize) -> usize {
        if self.parallel {
            effective_workers(n_tasks)
        } else {
            1
        }
    }
}

/// Runtime failure of the compiled-device serving API ([`MultiDevice::try_step`]
/// and friends): bad caller input reported in-band instead of aborting the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested context index has no programmed circuit.
    ContextNotProgrammed { context: usize, programmed: usize },
    /// `step` was driven with the wrong number of primary inputs.
    InputArity {
        context: usize,
        expected: usize,
        got: usize,
    },
    /// `set_registers` was given the wrong number of register bits.
    RegisterCount {
        context: usize,
        expected: usize,
        got: usize,
    },
    /// `arm_probes` was given a signal name the context cannot resolve.
    UnknownProbe { context: usize, name: String },
    /// A throughput run asked for a chunk width the kernel dispatcher does
    /// not instantiate (see [`crate::kernel::SUPPORTED_WIDTHS`]).
    UnsupportedWidth { width: usize },
    /// A throughput run's stimulus length is not a whole number of chunks
    /// (`n_inputs * width` words each).
    ThroughputStimulus {
        context: usize,
        chunk_words: usize,
        got: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ContextNotProgrammed {
                context,
                programmed,
            } => write!(
                f,
                "context {context} not programmed ({programmed} circuits loaded)"
            ),
            SimError::InputArity {
                context,
                expected,
                got,
            } => write!(f, "context {context} expects {expected} inputs, got {got}"),
            SimError::RegisterCount {
                context,
                expected,
                got,
            } => write!(
                f,
                "context {context} has {expected} registers, got {got} bits"
            ),
            SimError::UnknownProbe { context, name } => write!(
                f,
                "context {context} has no probe-able signal named {name:?}"
            ),
            SimError::UnsupportedWidth { width } => write!(
                f,
                "chunk width {width} unsupported (use one of {:?})",
                crate::kernel::SUPPORTED_WIDTHS
            ),
            SimError::ThroughputStimulus {
                context,
                chunk_words,
                got,
            } => write!(
                f,
                "context {context} throughput stimulus must be a multiple of \
                 {chunk_words} words (n_inputs * width), got {got}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Worker threads worth spawning for `n_tasks` independent jobs: never more
/// than the machine exposes, never more than there are jobs.
pub(crate) fn effective_workers(n_tasks: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_tasks)
}

/// Run `f(worker, task)` for every task `0..n` across up to `workers` scoped
/// threads via an atomic work queue. Workers claim tasks in nondeterministic
/// order, but the returned `Vec` is slot-indexed by task id, so callers
/// always see results in task order — the basis of the parallel compile's
/// bit-for-bit determinism. The `worker` argument is the stable index of the
/// claiming thread (0 on the serial path), so instrumentation can attribute
/// work to pool members. With `workers <= 1` this is a plain serial loop
/// (no threads spawned).
pub(crate) fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    f: impl Fn(usize, usize) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    if workers <= 1 || n <= 1 {
        return (0..n).map(|c| f(0, c)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        let slots = &slots;
        let next = &next;
        for w in 0..workers {
            s.spawn(move || loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n {
                    break;
                }
                let value = f(w, c);
                *slots[c].lock().unwrap() = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every slot filled once the scope joins")
        })
        .collect()
}

/// One context's intermediate compile products, retained from a finished
/// compile so a later [`MultiDevice::compile_delta`] can reuse them. Opaque
/// outside this crate: callers obtain them from
/// [`MultiDevice::context_artifacts`] and hand references back as
/// [`DeltaSeed`]s — the equality gates that make reuse sound live inside
/// the compile pipeline, not in the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextArtifacts {
    pub(crate) mapped: MappedNetlist,
    pub(crate) problem: PlacementProblem,
    pub(crate) placement: Placement,
    pub(crate) routed: RoutedContext,
}

/// Per-context seed for [`MultiDevice::compile_delta`]: what (if anything)
/// a prior compile of this context slot left behind.
#[derive(Debug, Clone, Copy)]
pub enum DeltaSeed<'a> {
    /// No usable prior artifact: run the cold per-context pipeline.
    Cold,
    /// The circuit is byte-identical to the one `0` was compiled from
    /// (the caller vouches for this, e.g. via a per-context content hash):
    /// every artifact is reused verbatim without recomputation.
    Unchanged(&'a ContextArtifacts),
    /// The circuit changed: the context is re-mapped, and each downstream
    /// artifact is reused only when its inputs are *provably identical* to
    /// the stale compile's (placement when the placement problem is equal,
    /// routing when the derived nets are equal). Each per-context compile
    /// is a deterministic pure function of its inputs, so these equality
    /// gates keep the delta result bit-identical to a cold compile.
    Changed(&'a ContextArtifacts),
}

/// What [`MultiDevice::compile_delta`] reused versus recomputed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Programmed contexts in the workload.
    pub contexts_total: usize,
    /// Contexts reused wholesale from an [`DeltaSeed::Unchanged`] seed.
    pub contexts_reused: usize,
    /// *Changed* contexts whose placement survived re-mapping (identical
    /// placement problem, so the stale placement is the cold answer).
    pub placements_reused: usize,
    /// *Changed* contexts whose routing survived re-placement (identical
    /// nets, so the stale routing trees are the cold answer).
    pub routes_reused: usize,
}

/// Paper-grounded quantities attached to each `context_switch` trace event:
/// per-context switch bitstreams (for bit-flip counts and measured change
/// rate), the pattern-class census of the switch columns (Figs. 3–5), and
/// the total SE decoder cost of realising them in the RCM (Fig. 9).
///
/// Built once per device, and only when the recorder is enabled, so the
/// uninstrumented `switch_context` path stays cheap.
struct ReconfigMeta {
    /// Per context: every routing switch's on/off state, in the
    /// deterministic order of [`SwitchUsage::columns`].
    state_bits: Vec<Vec<bool>>,
    n_columns: usize,
    n_constant: usize,
    n_single_bit: usize,
    n_general: usize,
    se_cost_total: u64,
}

impl ReconfigMeta {
    fn build(usage: &SwitchUsage, ctx: ContextId) -> ReconfigMeta {
        let columns = usage.columns();
        let stats = mcfpga_config::ColumnSetStats::measure(&columns, ctx);
        let se_cost_total = columns
            .iter()
            .map(|&col| mcfpga_rcm::synthesize(col, ctx).cost().n_ses as u64)
            .sum();
        let state_bits = (0..ctx.n_contexts())
            .map(|c| columns.iter().map(|col| col.value_in(c)).collect())
            .collect();
        ReconfigMeta {
            state_bits,
            n_columns: stats.n_columns,
            n_constant: stats.n_constant,
            n_single_bit: stats.n_single_bit,
            n_general: stats.n_general,
            se_cost_total,
        }
    }
}

/// The all-lanes-equal word of one register or LUT value.
pub(crate) fn lane_word(bit: bool) -> u64 {
    if bit {
        !0
    } else {
        0
    }
}

/// `m`'s power-on registers, broadcast to every lane.
fn initial_words(m: &MappedNetlist) -> Vec<u64> {
    m.dffs.iter().map(|d| lane_word(d.init)).collect()
}

/// Build one logic block per entry of `tables`, where `tables[b][c]` holds
/// device context `c`'s truth table for each output slot of block `b`.
/// Contexts with equal tuples share a plane, the local size controller
/// selects it, and a block needing more planes than `mode` offers fails
/// with [`CompileError::PlaneOverflow`].
pub(crate) fn build_logic_blocks(
    arch: &ArchSpec,
    mode: LutMode,
    tables: &[Vec<Vec<u64>>],
) -> Result<Vec<AdaptiveLogicBlock>, CompileError> {
    let ctx = arch.context_id();
    tables
        .iter()
        .enumerate()
        .map(|(b, per_context)| {
            let mut planes: Vec<&Vec<u64>> = Vec::new();
            let mut plane_of_context = Vec::with_capacity(per_context.len());
            for key in per_context {
                let p = planes.iter().position(|k| *k == key).unwrap_or_else(|| {
                    planes.push(key);
                    planes.len() - 1
                });
                plane_of_context.push(p);
            }
            if planes.len() > mode.planes {
                return Err(CompileError::PlaneOverflow {
                    lb: b,
                    needed: planes.len(),
                    available: mode.planes,
                });
            }
            let controller = LocalSizeController::new(ctx, &plane_of_context, mode);
            let mut lb = AdaptiveLogicBlock::new(arch.lut, mode, SizeControl::Local(controller))
                .expect("mode fits geometry");
            for (p, key) in planes.iter().enumerate() {
                for (slot, &table) in key.iter().enumerate() {
                    lb.program(slot, p, &TruthTable::from_packed(mode.inputs, table));
                }
            }
            Ok(lb)
        })
        .collect()
}

/// A compiled multi-context fabric (see the module docs for the two compile
/// front ends that build it).
pub struct MultiDevice {
    arch: ArchSpec,
    ctx: ContextId,
    mapped: Vec<MappedNetlist>,
    problems: Vec<PlacementProblem>,
    placements: Vec<Placement>,
    routed: Vec<RoutedContext>,
    graph: RoutingGraph,
    usage: SwitchUsage,
    /// Physical logic blocks in use, densely numbered ([`LutFault::lb`]
    /// indexes this).
    ///
    /// [`LutFault::lb`]: crate::LutFault::lb
    lbs: Vec<AdaptiveLogicBlock>,
    /// Per context: LUT position -> (logic block, output slot).
    site_of: Vec<Vec<(usize, usize)>>,
    /// Per context: the register file holding its registers. Aligned
    /// fabrics share file 0, so registers survive a context switch;
    /// independent circuits own file `c`. File `f` powers on with context
    /// `f`'s initial state.
    pub(crate) reg_file: Vec<usize>,
    /// Per register file: one 64-lane word per register (bit `l` = lane `l`).
    pub(crate) states: Vec<Vec<u64>>,
    active: usize,
    /// Per-context optimized kernels, tagged with the configuration epoch
    /// they snapshot and rebuilt lazily when stale.
    kernels: Vec<Option<(u64, CompiledKernel)>>,
    /// Bumped on every configuration mutation (fault injection), so cached
    /// kernels invalidate.
    config_epoch: u64,
    scratch: KernelScratch,
    /// Scalar hot-path scratch, persistent across cycles.
    scratch_lut_vals: Vec<bool>,
    scratch_in_bits: Vec<bool>,
    scratch_next: Vec<u64>,
    /// Observability sink; disabled (no-op) unless compiled via `*_with`.
    recorder: Recorder,
    /// Lazily built on the first traced context switch (enabled recorders
    /// only); `None` forever on the uninstrumented path.
    reconfig_meta: Option<ReconfigMeta>,
    /// Per-context armed signal probes; `None` everywhere until
    /// [`MultiDevice::arm_probes`], so the batched hot path pays a single
    /// branch when probing is off.
    probes: Vec<Option<ContextProbes>>,
    /// Per-LUT activity accounting; `None` until
    /// [`MultiDevice::enable_activity_census`].
    census: Option<ActivityCensus>,
    /// Context switches with energy accounting (see
    /// [`MultiDevice::reconfig_energy`]).
    switch_count: u64,
    /// Configuration bits flipped across those switches.
    switch_bits_flipped: u64,
}

impl MultiDevice {
    /// Compile one circuit per context onto the architecture.
    pub fn compile(arch: &ArchSpec, circuits: &[Netlist]) -> Result<MultiDevice, CompileError> {
        Self::compile_with(arch, circuits, &Recorder::disabled())
    }

    /// As [`MultiDevice::compile`], recording phase spans and metrics into
    /// `rec`. The device keeps a clone of the recorder, so later
    /// `switch_context` / `step` calls count into the same collector.
    pub fn compile_with(
        arch: &ArchSpec,
        circuits: &[Netlist],
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        Self::compile_opts(arch, circuits, &CompileOptions::default(), rec)
    }

    /// As [`MultiDevice::compile_with`], with explicit pipeline knobs
    /// ([`CompileOptions::parallel`] and the shared [`RouteOptions`]). This
    /// is [`MultiDevice::compile_delta`] with every seed [`DeltaSeed::Cold`]
    /// and no cancellation hook, so a direct compile and a served one run
    /// the same code.
    pub fn compile_opts(
        arch: &ArchSpec,
        circuits: &[Netlist],
        opts: &CompileOptions,
        rec: &Recorder,
    ) -> Result<MultiDevice, CompileError> {
        let seeds = vec![DeltaSeed::Cold; circuits.len()];
        let (device, _) = Self::compile_delta(arch, circuits, opts, rec, &seeds, None)?;
        Ok(device)
    }

    /// Compile pre-mapped netlists, one per context (used directly by the
    /// temporal-execution flow, whose stages are built at the mapped level).
    /// Each context runs the per-context unit of [`MultiDevice::compile_opts`]
    /// with its mapping step taking the given netlist as is.
    pub fn compile_mapped(
        arch: &ArchSpec,
        circuits: &[MappedNetlist],
    ) -> Result<MultiDevice, CompileError> {
        for m in circuits {
            assert_eq!(
                m.k, arch.lut.min_inputs,
                "pre-mapped netlists must use the fabric's k"
            );
        }
        let seeds = vec![DeltaSeed::Cold; circuits.len()];
        let pre_mapped = |c: usize| Ok(circuits[c].clone());
        let opts = CompileOptions::default();
        let rec = Recorder::disabled();
        let (device, _) =
            Self::compile_contexts(arch, circuits.len(), &pre_mapped, &opts, &rec, &seeds, None)?;
        Ok(device)
    }

    /// Compile with per-context artifact reuse from a prior compile of a
    /// near-identical workload — the delta path behind `mcfpga-serve`'s
    /// near-match design cache, and with every seed [`DeltaSeed::Cold`] the
    /// cold path itself ([`MultiDevice::compile_opts`] is exactly that call).
    ///
    /// `seeds` carries one [`DeltaSeed`] per circuit. Each per-context
    /// pipeline stage (map → place → route) is a deterministic pure function
    /// of that context's inputs, independent of every other context, so a
    /// stale artifact is reused **only** when its inputs are identical:
    /// wholesale for [`DeltaSeed::Unchanged`] slots, and per-stage behind
    /// the equality gates of [`mcfpga_place::place_delta`] and
    /// [`mcfpga_route::route_context_delta`] for [`DeltaSeed::Changed`]
    /// slots. A reused artifact equals what its stage would have recomputed,
    /// so the device is bit-for-bit identical to a cold compile of the same
    /// inputs, which is what lets cached designs be shared between the cold
    /// and delta paths.
    ///
    /// `cancel` is polled between per-context compile phases (and once more
    /// before device assembly); when it reports `true` the compile stops
    /// with [`CompileError::DeadlineExceeded`] instead of burning a worker
    /// on a result nobody is waiting for.
    pub fn compile_delta(
        arch: &ArchSpec,
        circuits: &[Netlist],
        opts: &CompileOptions,
        rec: &Recorder,
        seeds: &[DeltaSeed<'_>],
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(MultiDevice, DeltaStats), CompileError> {
        let k = arch.lut.min_inputs;
        let map = |c: usize| map_netlist(&circuits[c], k);
        Self::compile_contexts(arch, circuits.len(), &map, opts, rec, seeds, cancel)
    }

    /// The per-context pipeline behind every independent compile: context
    /// `c` is obtained from `map(c)` (or taken from its seed), placed with
    /// its own derived seed, and routed on the shared immutable graph, so
    /// the work fans out across threads when `opts.parallel` is set. The
    /// per-context results merge back in context order either way, making
    /// the parallel device bit-for-bit identical to the serial one
    /// (including which error is reported: the first failing context).
    fn compile_contexts(
        arch: &ArchSpec,
        n: usize,
        map: &(dyn Fn(usize) -> Result<MappedNetlist, MapError> + Sync),
        opts: &CompileOptions,
        rec: &Recorder,
        seeds: &[DeltaSeed<'_>],
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Result<(MultiDevice, DeltaStats), CompileError> {
        if n == 0 {
            return Err(CompileError::EmptyWorkload);
        }
        assert_eq!(
            seeds.len(),
            n,
            "one DeltaSeed per circuit (use DeltaSeed::Cold for new slots)"
        );
        arch.validate().expect("valid architecture");
        assert!(n <= arch.n_contexts, "more circuits than device contexts");
        let graph = RoutingGraph::build(arch);
        let expired = || cancel.is_some_and(|f| f());

        struct CtxOut {
            mapped: MappedNetlist,
            problem: PlacementProblem,
            placement: Placement,
            routed: RoutedContext,
            context_reused: bool,
            placement_reused: bool,
            route_reused: bool,
        }
        let per_context = |worker: usize, c: usize| -> Result<CtxOut, CompileError> {
            // The budget check between per-context phases: a job whose
            // deadline lapsed mid-service stops before the next context.
            if expired() {
                return Err(CompileError::DeadlineExceeded);
            }
            // The span's Begin/End events make the pool's fan-out visible in
            // the trace viewer, attributed to the claiming worker.
            let _span = rec.span(
                "compile_context",
                &[("context", c.into()), ("worker", worker.into())],
            );
            if let DeltaSeed::Unchanged(a) = seeds[c] {
                return Ok(CtxOut {
                    mapped: a.mapped.clone(),
                    problem: a.problem.clone(),
                    placement: a.placement.clone(),
                    routed: a.routed.clone(),
                    context_reused: true,
                    placement_reused: true,
                    route_reused: true,
                });
            }
            let stale = match seeds[c] {
                DeltaSeed::Changed(a) => Some(a),
                _ => None,
            };
            let mapped = {
                let _span = rec.span("map", &[]);
                map(c)?
            };
            let problem = PlacementProblem::from_mapped(&mapped, arch)?;
            let anneal = AnnealOptions {
                seed: 0xC0FFEE ^ c as u64,
                ..Default::default()
            };
            let (placement, placement_reused) = match stale {
                Some(a) => place_delta(&problem, &anneal, &a.problem, &a.placement, rec),
                None => (place_with(&problem, &anneal, rec), false),
            };
            let nets = nets_from_placement(&problem, &placement);
            let (routed, route_reused) = match stale {
                Some(a) => route_context_delta(&graph, &nets, &opts.route, &a.routed, rec)?,
                None => (route_context_with(&graph, &nets, &opts.route, rec)?, false),
            };
            let routed = routed.require_converged()?;
            Ok(CtxOut {
                mapped,
                problem,
                placement,
                routed,
                context_reused: false,
                placement_reused,
                route_reused,
            })
        };

        let mut mapped = Vec::with_capacity(n);
        let mut problems = Vec::with_capacity(n);
        let mut placements = Vec::with_capacity(n);
        let mut routed = Vec::with_capacity(n);
        let mut stats = DeltaStats {
            contexts_total: n,
            ..Default::default()
        };
        let workers = opts.resolved_workers(n);
        rec.set_gauge("flow.parallelism", workers as f64);
        let mut merge = |out: CtxOut| {
            stats.contexts_reused += out.context_reused as usize;
            if !out.context_reused {
                stats.placements_reused += out.placement_reused as usize;
                stats.routes_reused += out.route_reused as usize;
            }
            mapped.push(out.mapped);
            problems.push(out.problem);
            placements.push(out.placement);
            routed.push(out.routed);
        };
        if workers > 1 {
            for result in fan_out(n, workers, per_context) {
                merge(result?);
            }
        } else {
            // Plain serial loop: stop at the first failing context instead
            // of computing the rest (the parallel path reports the same
            // first-in-order error, it just can't avoid the extra work).
            for c in 0..n {
                merge(per_context(0, c)?);
            }
        }
        // Last budget check before the (serial) assembly tail.
        if expired() {
            return Err(CompileError::DeadlineExceeded);
        }

        // Physical logic blocks: one per grid site in use, numbered densely
        // in site order, collecting the tables each device context put there
        // (contexts beyond the programmed circuits stay all-zero and
        // collapse into one plane).
        let lb_span = rec.span("logic_blocks", &[]);
        let outs = arch.lut.outputs;
        let mut site_of: Vec<Vec<(usize, usize)>> = mapped
            .iter()
            .zip(&placements)
            .map(|(m, placement)| {
                (0..m.luts.len())
                    .map(|i| {
                        let pos = placement.position[lb_of_lut(i, outs)];
                        (graph.grid.full.index(pos), i % outs)
                    })
                    .collect()
            })
            .collect();
        let mut used: Vec<usize> = site_of.iter().flatten().map(|&(site, _)| site).collect();
        used.sort_unstable();
        used.dedup();
        let mut tables = vec![vec![vec![0u64; outs]; arch.n_contexts]; used.len()];
        for (c, (positions, m)) in site_of.iter_mut().zip(&mapped).enumerate() {
            for ((block, slot), lut) in positions.iter_mut().zip(&m.luts) {
                *block = used.binary_search(block).expect("site in use");
                tables[*block][c][*slot] = lut.table;
            }
        }
        let mode = LutMode {
            inputs: arch.lut.min_inputs,
            planes: arch.lut.max_planes(),
        };
        let lbs = build_logic_blocks(arch, mode, &tables)?;
        drop(lb_span);

        let reg_file = (0..n).collect();
        let device = Self::from_image(
            arch, graph, mapped, problems, placements, routed, lbs, site_of, reg_file, rec,
        );
        Ok((device, stats))
    }

    /// The runtime around a compiled image, shared by both front ends:
    /// extract the switch columns (unprogrammed contexts route nothing),
    /// power on every register file, and start at context 0.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_image(
        arch: &ArchSpec,
        graph: RoutingGraph,
        mapped: Vec<MappedNetlist>,
        problems: Vec<PlacementProblem>,
        placements: Vec<Placement>,
        routed: Vec<RoutedContext>,
        lbs: Vec<AdaptiveLogicBlock>,
        site_of: Vec<Vec<(usize, usize)>>,
        reg_file: Vec<usize>,
        rec: &Recorder,
    ) -> MultiDevice {
        let usage = {
            let _span = rec.span("columns", &[]);
            let empty = RoutedContext {
                nets: vec![],
                trees: vec![],
                delays: vec![],
                iterations: 0,
                converged: true,
                overused_edges: 0,
                edge_occupancy: vec![],
                edge_history: vec![],
            };
            let mut all_routes = routed.clone();
            all_routes.resize(arch.n_contexts, empty);
            switch_columns(&graph, &all_routes)
        };
        let n_files = reg_file.iter().max().map_or(0, |&f| f + 1);
        let states = mapped[..n_files].iter().map(initial_words).collect();
        let n = mapped.len();
        MultiDevice {
            arch: arch.clone(),
            ctx: arch.context_id(),
            mapped,
            problems,
            placements,
            routed,
            graph,
            usage,
            lbs,
            site_of,
            reg_file,
            states,
            active: 0,
            kernels: vec![None; n],
            config_epoch: 0,
            scratch: KernelScratch::new(),
            scratch_lut_vals: Vec::new(),
            scratch_in_bits: Vec::new(),
            scratch_next: Vec::new(),
            recorder: rec.clone(),
            reconfig_meta: None,
            probes: (0..n).map(|_| None).collect(),
            census: None,
            switch_count: 0,
            switch_bits_flipped: 0,
        }
    }

    /// Clone out every programmed context's intermediate compile products,
    /// in context order — the seeds a later [`MultiDevice::compile_delta`]
    /// of a perturbed workload reuses.
    pub fn context_artifacts(&self) -> Vec<ContextArtifacts> {
        (0..self.mapped.len())
            .map(|c| ContextArtifacts {
                mapped: self.mapped[c].clone(),
                problem: self.problems[c].clone(),
                placement: self.placements[c].clone(),
                routed: self.routed[c].clone(),
            })
            .collect()
    }

    /// Route simulation telemetry (`sim_kernel_build` spans, `sim.cycles` /
    /// `sim.words` counters) into `rec` for all later stepping.
    pub fn attach_recorder(&mut self, rec: &Recorder) {
        self.recorder = rec.clone();
    }

    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    pub fn active_context(&self) -> usize {
        self.active
    }

    /// Switch the active context.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_switch_context`]; use the fallible form on
    /// serving paths that must survive bad input.
    #[inline]
    pub fn switch_context(&mut self, context: usize) {
        self.try_switch_context(context)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Switch the active context, reporting an unprogrammed context in-band.
    pub fn try_switch_context(&mut self, context: usize) -> Result<(), SimError> {
        self.check_context(context)?;
        if context != self.active {
            self.recorder.incr("sim.context_switches", 1);
            // Energy accounting needs the per-context switch bitstreams;
            // build them lazily and only when someone is looking (a traced
            // run or an enabled census), so the uninstrumented hot path
            // never pays for the column synthesis.
            if self.recorder.is_enabled() || self.census.is_some() {
                let from = self.active;
                let meta = self
                    .reconfig_meta
                    .get_or_insert_with(|| ReconfigMeta::build(&self.usage, self.ctx));
                let a = &meta.state_bits[from];
                let b = &meta.state_bits[context];
                let bits_flipped = a.iter().zip(b).filter(|(x, y)| x != y).count();
                let change_rate = mcfpga_config::measure_change_rate(a, b);
                self.switch_count += 1;
                self.switch_bits_flipped += bits_flipped as u64;
                self.recorder
                    .incr("sim.switch.bits_flipped", bits_flipped as u64);
                if self.recorder.is_enabled() {
                    self.recorder.instant(
                        "context_switch",
                        &[
                            ("from", from.into()),
                            ("to", context.into()),
                            ("bits_flipped", bits_flipped.into()),
                            ("change_rate", change_rate.into()),
                            (
                                "energy_pj",
                                observe::switch_energy_pj(bits_flipped as u64).into(),
                            ),
                            (
                                "energy_pj_cum",
                                observe::switch_energy_pj(self.switch_bits_flipped).into(),
                            ),
                            ("n_columns", meta.n_columns.into()),
                            ("n_constant", meta.n_constant.into()),
                            ("n_single_bit", meta.n_single_bit.into()),
                            ("n_general", meta.n_general.into()),
                            ("se_cost_total", meta.se_cost_total.into()),
                        ],
                    );
                }
            }
        }
        self.active = context;
        Ok(())
    }

    /// One clock cycle in the active context.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_step`]; use the fallible form on serving paths
    /// that must survive bad input.
    #[inline]
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        self.try_step(inputs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One clock cycle in the active context, reporting an input-arity
    /// mismatch in-band instead of aborting the process.
    ///
    /// This is the hardware-model reference: LUT positions evaluate in
    /// topological (emission) order, each value pulled through its physical
    /// logic block on lane 0 of the register file, and the next state is
    /// written back to every lane.
    pub fn try_step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, SimError> {
        let c = self.active;
        self.check_arity(c, inputs.len())?;
        self.recorder.incr("sim.steps", 1);
        self.recorder.incr("sim.cycles", 1);
        let file = self.reg_file[c];
        let m = &self.mapped[c];
        // Persistent scratch: the only allocation left is the returned
        // output vector.
        let mut lut_vals = std::mem::take(&mut self.scratch_lut_vals);
        let mut in_bits = std::mem::take(&mut self.scratch_in_bits);
        lut_vals.clear();
        lut_vals.resize(m.luts.len(), false);
        for (i, lut) in m.luts.iter().enumerate() {
            in_bits.clear();
            in_bits.extend(
                lut.inputs
                    .iter()
                    .map(|&s| self.resolve(file, s, inputs, &lut_vals)),
            );
            let (lb, slot) = self.site_of[c][i];
            lut_vals[i] = self.lbs[lb].output(self.ctx, c, &in_bits, slot);
        }
        let outs: Vec<bool> = m
            .outputs
            .iter()
            .map(|(_, s)| self.resolve(file, *s, inputs, &lut_vals))
            .collect();
        let mut next = std::mem::take(&mut self.scratch_next);
        next.clear();
        next.extend(
            m.dffs
                .iter()
                .map(|d| lane_word(self.resolve(file, d.d, inputs, &lut_vals))),
        );
        std::mem::swap(&mut self.states[file], &mut next);
        self.scratch_next = next;
        if let Some(census) = self.census.as_mut() {
            census.record_lane(c, file, &lut_vals);
        }
        self.scratch_lut_vals = lut_vals;
        self.scratch_in_bits = in_bits;
        Ok(outs)
    }

    /// One clock edge over [`LANES`] independent stimulus lanes in the
    /// active context: bit `l` of every input, output, and register word is
    /// one complete stimulus stream.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_step_batch`].
    #[inline]
    pub fn step_batch(&mut self, inputs: &[u64]) -> Vec<u64> {
        self.try_step_batch(inputs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`MultiDevice::step_batch`], reporting an input-arity mismatch
    /// in-band.
    pub fn try_step_batch(&mut self, inputs: &[u64]) -> Result<Vec<u64>, SimError> {
        let mut out = Vec::new();
        self.try_step_batch_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Allocation-free batched step: `out` is cleared and refilled with one
    /// word per primary output of the active context.
    pub fn try_step_batch_into(
        &mut self,
        inputs: &[u64],
        out: &mut Vec<u64>,
    ) -> Result<(), SimError> {
        let c = self.active;
        self.check_arity(c, inputs.len())?;
        self.ensure_kernel(c);
        let file = self.reg_file[c];
        let kernel = &self.kernels[c].as_ref().expect("kernel built above").1;
        kernel.step(inputs, &mut self.states[file], &mut self.scratch, out);
        // Observers, one branch when there are none: the dead tail
        // completes the value array, and the census and probes read it.
        if self.census.is_some() || self.probes[c].is_some() {
            kernel.observe::<1>(&mut self.scratch);
            if let Some(census) = self.census.as_mut() {
                census.record(c, file, kernel, &self.scratch, 1);
            }
            if let Some(probes) = self.probes[c].as_mut() {
                probes.sample(kernel, &self.scratch, 1);
            }
        }
        self.recorder.incr("sim.words", 1);
        self.recorder.incr("sim.cycles", LANES as u64);
        Ok(())
    }

    /// Lower `context` to a fresh, unoptimized instruction stream: the
    /// mapped netlist gives sources and emission (= topological) order, the
    /// logic blocks give each position's active plane and its packed truth
    /// table as the hardware currently holds it — faults included.
    fn build_kernel(&self, context: usize) -> CompiledKernel {
        let m = &self.mapped[context];
        CompiledKernel::build(
            m.n_inputs,
            m.dffs.len(),
            m.luts
                .iter()
                .zip(&self.site_of[context])
                .map(|(lut, &(lb, slot))| {
                    let block = &self.lbs[lb];
                    let plane = block.active_plane(self.ctx, context);
                    (lut.inputs.as_slice(), block.plane_packed(slot, plane))
                }),
            m.outputs.iter().map(|(_, s)| *s),
            m.dffs.iter().map(|d| d.d),
        )
    }

    /// Every context's kernel, freshly lowered and *unoptimized*: one
    /// instruction per LUT position, in position order, evaluated by every
    /// step. The fault campaign flips table bits on clones of these,
    /// addressed by LUT position, instead of mutating the device; they are
    /// also the independent reference the optimized kernels
    /// ([`MultiDevice::kernel`]) are held to, and their
    /// [`CompiledKernel::optimize_with_stats`] reports what the optimizer
    /// does to each context.
    pub fn compiled_kernels(&self) -> Vec<CompiledKernel> {
        (0..self.n_contexts())
            .map(|c| self.build_kernel(c))
            .collect()
    }

    /// Every `(context, LUT position)` whose compiled-kernel table images
    /// the given LUT-memory fault: positions mapped onto
    /// (`fault.lb`, `fault.output`) in contexts whose active plane is
    /// `fault.plane`.
    pub(crate) fn fault_kernel_sites(&self, fault: &crate::LutFault) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for (c, positions) in self.site_of.iter().enumerate() {
            if self.lbs[fault.lb].active_plane(self.ctx, c) != fault.plane {
                continue;
            }
            for (i, &pos) in positions.iter().enumerate() {
                if pos == (fault.lb, fault.output) {
                    sites.push((c, i));
                }
            }
        }
        sites
    }

    /// Mutable logic-block access (fault injection). Any access is assumed
    /// to mutate configuration, so cached compiled kernels invalidate.
    pub(crate) fn lb_mut(&mut self, lb: usize) -> &mut AdaptiveLogicBlock {
        self.config_epoch += 1;
        &mut self.lbs[lb]
    }

    /// Throughput-mode batched run: drive `context` through a whole stimulus
    /// stream at chunk width `width` (64·width lanes per step), optionally
    /// fanning independent word blocks across up to `threads` workers.
    ///
    /// Panicking convenience wrapper over the canonical
    /// [`MultiDevice::try_run_throughput`].
    pub fn run_throughput(
        &mut self,
        context: usize,
        stimulus: &[u64],
        width: usize,
        threads: usize,
    ) -> Vec<u64> {
        self.try_run_throughput(context, stimulus, width, threads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Throughput-mode batched run over a prepared stimulus stream.
    ///
    /// `stimulus` is chunk-major and input-major within each chunk: step `t`
    /// of input `i`, chunk word `w`, lives at
    /// `stimulus[(t * n_inputs + i) * width + w]`; lane `l` of a chunk is
    /// bit `l % 64` of word `l / 64`, one independent stimulus stream. The
    /// returned buffer has the same shape over the context's outputs:
    /// `out[(t * n_outputs + o) * width + w]`.
    ///
    /// Every lane starts from lane 0 of the context's register file
    /// (broadcast), and — unlike [`MultiDevice::step_batch`] — the run does
    /// **not** write state back: this is the "no mid-batch feedback
    /// observation" streaming mode, a pure function of the stimulus that
    /// leaves the device's register state untouched.
    ///
    /// With `threads > 1` (and no probes or census armed) the chunk stream
    /// is split into one block per worker and fanned across the compile
    /// pool's scoped threads. Sequential circuits first run a cheap
    /// register-cone-only prologue to seed each block's starting registers,
    /// so the parallel run is bit-for-bit identical to the serial one.
    /// Armed probes or an enabled census force `threads = 1`, because their
    /// samples are stream-ordered, and sample all 64·width lanes of the
    /// same optimized kernel through its LUT → slot map.
    pub fn try_run_throughput(
        &mut self,
        context: usize,
        stimulus: &[u64],
        width: usize,
        threads: usize,
    ) -> Result<Vec<u64>, SimError> {
        self.check_context(context)?;
        if !kernel::SUPPORTED_WIDTHS.contains(&width) {
            return Err(SimError::UnsupportedWidth { width });
        }
        match width {
            1 => self.run_throughput_inner::<1>(context, stimulus, threads),
            2 => self.run_throughput_inner::<2>(context, stimulus, threads),
            4 => self.run_throughput_inner::<4>(context, stimulus, threads),
            _ => self.run_throughput_inner::<8>(context, stimulus, threads),
        }
    }

    fn run_throughput_inner<const W: usize>(
        &mut self,
        c: usize,
        stimulus: &[u64],
        threads: usize,
    ) -> Result<Vec<u64>, SimError> {
        let n_inputs = self.mapped[c].n_inputs;
        let chunk_words = n_inputs * W;
        if chunk_words == 0 {
            return Ok(Vec::new());
        }
        if !stimulus.len().is_multiple_of(chunk_words) {
            return Err(SimError::ThroughputStimulus {
                context: c,
                chunk_words,
                got: stimulus.len(),
            });
        }
        let n_chunks = stimulus.len() / chunk_words;
        let observed = self.census.is_some() || self.probes[c].is_some();
        self.ensure_kernel(c);
        let (epoch, kernel) = self.kernels[c].take().expect("kernel built above");
        let n_outputs = kernel.n_outputs();
        let file = self.reg_file[c];
        // Every lane starts from lane 0 of the register file.
        let mut regs = Vec::new();
        kernel::broadcast_wide(&self.registers(c), &mut regs, W);
        // `threads` is an explicit caller knob (bench cells sweep it), so it
        // is honored even past `available_parallelism` — oversubscription
        // just timeslices, and the block-split path stays exercised on small
        // machines. Observability forces the serial path: samples are
        // stream-ordered.
        let workers = if observed {
            1
        } else {
            threads.clamp(1, n_chunks.max(1))
        };
        let out = if workers > 1 {
            // Sequential prologue: advance only the registers' fanin cone
            // to find each block's starting register chunks. Combinational
            // contexts skip it entirely.
            let block_len = n_chunks.div_ceil(workers);
            let n_blocks = n_chunks.div_ceil(block_len);
            let mut block_regs: Vec<Vec<u64>> = Vec::with_capacity(n_blocks);
            if kernel.n_regs() == 0 {
                block_regs.resize(n_blocks, Vec::new());
            } else {
                let cone = kernel.state_cone();
                let mut vals = Vec::new();
                let mut r = regs.clone();
                for b in 0..n_blocks {
                    block_regs.push(r.clone());
                    if b + 1 == n_blocks {
                        break;
                    }
                    for t in b * block_len..(b + 1) * block_len {
                        kernel.step_state::<W>(
                            &cone,
                            &stimulus[t * chunk_words..][..chunk_words],
                            &mut r,
                            &mut vals,
                        );
                    }
                }
            }
            let blocks = fan_out(n_blocks, workers, |_, b| {
                let lo = b * block_len;
                let hi = ((b + 1) * block_len).min(n_chunks);
                let mut regs = block_regs[b].clone();
                let mut scratch = KernelScratch::new();
                let mut step_out = Vec::with_capacity(n_outputs * W);
                let mut block_out = Vec::with_capacity((hi - lo) * n_outputs * W);
                for t in lo..hi {
                    kernel.step_wide::<W>(
                        &stimulus[t * chunk_words..][..chunk_words],
                        &mut regs,
                        &mut scratch,
                        &mut step_out,
                    );
                    block_out.extend_from_slice(&step_out);
                }
                block_out
            });
            let mut out = Vec::with_capacity(n_chunks * n_outputs * W);
            for block in blocks {
                out.extend(block);
            }
            out
        } else {
            let mut out = vec![0u64; n_chunks * n_outputs * W];
            let mut scratch = std::mem::take(&mut self.scratch);
            let mut step_out = Vec::with_capacity(n_outputs * W);
            for t in 0..n_chunks {
                let stim = &stimulus[t * chunk_words..][..chunk_words];
                kernel.step_wide::<W>(stim, &mut regs, &mut scratch, &mut step_out);
                out[t * n_outputs * W..][..n_outputs * W].copy_from_slice(&step_out);
                if observed {
                    kernel.observe::<W>(&mut scratch);
                    if let Some(census) = self.census.as_mut() {
                        census.record(c, file, &kernel, &scratch, W);
                    }
                    if let Some(probes) = self.probes[c].as_mut() {
                        probes.sample(&kernel, &scratch, W);
                    }
                }
            }
            self.scratch = scratch;
            out
        };
        self.kernels[c] = Some((epoch, kernel));
        self.recorder
            .incr("sim.throughput_words", (n_chunks * W) as u64);
        self.recorder
            .incr("sim.cycles", (n_chunks * W * LANES) as u64);
        Ok(out)
    }

    fn resolve(&self, file: usize, src: MappedSource, inputs: &[bool], lut_vals: &[bool]) -> bool {
        match src {
            MappedSource::Input(i) => inputs[i],
            MappedSource::Register(r) => self.states[file][r] & 1 == 1,
            MappedSource::Lut(l) => lut_vals[l],
            MappedSource::Const(v) => v,
        }
    }

    /// `context`'s register state on lane 0 (temporal execution shuttles
    /// the shared transfer file through here).
    pub fn registers(&self, context: usize) -> Vec<bool> {
        self.states[self.reg_file[context]]
            .iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Number of programmed contexts (aligned workloads are padded to every
    /// device context).
    pub fn n_contexts(&self) -> usize {
        self.mapped.len()
    }

    /// Primary-input count of `context`'s netlist.
    pub fn n_inputs(&self, context: usize) -> Result<usize, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[context].n_inputs)
    }

    /// Primary-output count of `context`'s netlist.
    pub fn n_outputs(&self, context: usize) -> Result<usize, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[context].outputs.len())
    }

    /// The power-on register state of `context` — what [`MultiDevice::reset`]
    /// restores, independent of any stepping done since compile.
    pub fn initial_registers(&self, context: usize) -> Result<Vec<bool>, SimError> {
        self.check_context(context)?;
        Ok(self.mapped[context].initial_state().bits)
    }

    /// Build (and cache) `context`'s compiled batch kernel, returning a
    /// shared reference. Serving layers clone the kernel out once per
    /// design so sessions can step it without holding the device. The
    /// kernel is always optimized: it equals
    /// `compiled_kernels()[context].optimize()`, and arming probes or
    /// enabling the census never rebuilds it, because they read it through
    /// its LUT → slot map.
    pub fn kernel(&mut self, context: usize) -> Result<&CompiledKernel, SimError> {
        self.check_context(context)?;
        self.ensure_kernel(context);
        Ok(&self.kernels[context]
            .as_ref()
            .expect("kernel built above")
            .1)
    }

    /// Make `context`'s cached kernel current: lowered against the present
    /// configuration epoch, then optimized.
    fn ensure_kernel(&mut self, context: usize) {
        if matches!(&self.kernels[context], Some((epoch, _)) if *epoch == self.config_epoch) {
            return;
        }
        let _span = self.recorder.span("sim_kernel_build", &[]);
        let kernel = self.build_kernel(context).optimize();
        self.kernels[context] = Some((self.config_epoch, kernel));
    }

    fn check_context(&self, context: usize) -> Result<(), SimError> {
        if context >= self.mapped.len() {
            return Err(SimError::ContextNotProgrammed {
                context,
                programmed: self.mapped.len(),
            });
        }
        Ok(())
    }

    fn check_arity(&self, context: usize, got: usize) -> Result<(), SimError> {
        let expected = self.mapped[context].n_inputs;
        if got != expected {
            return Err(SimError::InputArity {
                context,
                expected,
                got,
            });
        }
        Ok(())
    }

    /// Overwrite a context's register state on every lane.
    ///
    /// Panicking `#[inline]` convenience wrapper over the canonical
    /// [`MultiDevice::try_set_registers`]; use the fallible form on
    /// serving paths that must survive bad input.
    #[inline]
    pub fn set_registers(&mut self, context: usize, bits: &[bool]) {
        self.try_set_registers(context, bits)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Overwrite a context's register state on every lane, reporting a bad
    /// context index or register-count mismatch in-band.
    pub fn try_set_registers(&mut self, context: usize, bits: &[bool]) -> Result<(), SimError> {
        let words: Vec<u64> = bits.iter().map(|&b| lane_word(b)).collect();
        self.try_set_lane_registers(context, &words)
    }

    /// Read `context`'s register state as 64-lane batch words (one `u64`
    /// per register, one stimulus lane per bit) — the context-extraction
    /// half of a checkpoint/migration protocol.
    pub fn lane_registers(&self, context: usize) -> Result<Vec<u64>, SimError> {
        self.check_context(context)?;
        Ok(self.states[self.reg_file[context]].clone())
    }

    /// Overwrite `context`'s register state from 64-lane batch words — the
    /// context-restoration half: a state extracted with
    /// [`MultiDevice::lane_registers`] on one device resumes bit-identically
    /// on another device compiled from the same request.
    pub fn try_set_lane_registers(
        &mut self,
        context: usize,
        words: &[u64],
    ) -> Result<(), SimError> {
        self.check_context(context)?;
        let regs = &mut self.states[self.reg_file[context]];
        if words.len() != regs.len() {
            return Err(SimError::RegisterCount {
                context,
                expected: regs.len(),
                got: words.len(),
            });
        }
        regs.copy_from_slice(words);
        Ok(())
    }

    /// Reset every register file to its power-on state and clear the
    /// activity census counters.
    pub fn reset(&mut self) {
        for (words, m) in self.states.iter_mut().zip(&self.mapped) {
            *words = initial_words(m);
        }
        if let Some(census) = self.census.as_mut() {
            *census = ActivityCensus::new(self.mapped.len());
        }
    }

    /// Per-switch usage across contexts (real mixed columns).
    pub fn switch_usage(&self) -> &SwitchUsage {
        &self.usage
    }

    /// On/off state of every routing switch when `context` is active, in the
    /// deterministic order of [`SwitchUsage::columns`]. The `context_switch`
    /// trace events measure `bits_flipped` and `change_rate` between exactly
    /// these vectors, so tests can recompute the payloads independently via
    /// `mcfpga_config::measure_change_rate`.
    pub fn switch_state_bits(&self, context: usize) -> Vec<bool> {
        self.usage
            .columns()
            .iter()
            .map(|col| col.value_in(context))
            .collect()
    }

    /// Configuration bits that change when switching `from` -> `to`
    /// (switch columns only): what a context switch costs dynamically.
    pub fn context_switch_toggles(&self, from: usize, to: usize) -> usize {
        self.usage
            .columns()
            .iter()
            .filter(|c| c.value_in(from) != c.value_in(to))
            .count()
    }

    /// The routing-switch bitstream.
    pub fn switch_bitstream(&self) -> Bitstream {
        self.usage.to_bitstream(&self.graph, &self.arch)
    }

    /// Verify that every placed net of every context is connected through
    /// switch state: breadth-first search over cells using only the
    /// switches that conduct in that context.
    pub fn check_routing(&self) -> Result<(), String> {
        use std::collections::{HashSet, VecDeque};
        for (c, (problem, placement)) in self.problems.iter().zip(&self.placements).enumerate() {
            let nets = nets_from_placement(problem, placement);
            let mut on: HashSet<usize> = HashSet::new();
            for (&(edge, _t), &mask) in &self.usage.switches {
                if (mask >> c) & 1 == 1 {
                    on.insert(edge);
                }
            }
            for (ni, net) in nets.iter().enumerate() {
                let start = self.graph.node(net.source);
                let mut seen = HashSet::from([start]);
                let mut q = VecDeque::from([start]);
                while let Some(node) = q.pop_front() {
                    for &e in self.graph.incident(node) {
                        if !on.contains(&e) {
                            continue;
                        }
                        let next = self.graph.other_end(e, node);
                        if seen.insert(next) {
                            q.push_back(next);
                        }
                    }
                }
                for &sink in &net.sinks {
                    if !seen.contains(&self.graph.node(sink)) {
                        return Err(format!("context {c}: net {ni} sink {sink} unreachable"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Compile-quality report for the experiments. A LUT site is a (logic
    /// block, output slot) some context maps a LUT onto; its plane demand is
    /// the number of distinct truth tables the contexts put there.
    pub fn report(&self) -> CompileReport {
        let mut site_tables: std::collections::BTreeMap<(usize, usize), Vec<u64>> =
            Default::default();
        for (m, sites) in self.mapped.iter().zip(&self.site_of) {
            for (lut, &site) in m.luts.iter().zip(sites) {
                let tables = site_tables.entry(site).or_default();
                if !tables.contains(&lut.table) {
                    tables.push(lut.table);
                }
            }
        }
        let mut plane_histogram = vec![0usize; self.ctx.n_contexts()];
        for tables in site_tables.values() {
            plane_histogram[tables.len() - 1] += 1;
        }
        let n_luts = site_tables.len();
        let planes: usize = site_tables.values().map(Vec::len).sum();
        CompileReport {
            granularity: self.mapped[0].k,
            n_luts,
            n_lbs: self.lbs.len(),
            mean_planes: if n_luts == 0 {
                0.0
            } else {
                planes as f64 / n_luts as f64
            },
            plane_histogram,
            controller_ses: self.lbs.iter().map(|l| l.controller_se_cost()).sum(),
            switch_stats: ColumnSetStats::measure(&self.usage.columns(), self.ctx),
            routing_iterations: self.routed.iter().map(|r| r.iterations).max().unwrap_or(0),
            critical_delay: self.critical_delay(),
        }
    }

    /// Number of physical logic blocks in use.
    pub fn n_lbs(&self) -> usize {
        self.lbs.len()
    }

    /// The LUT mode every logic block runs in.
    pub fn lb_mode(&self) -> LutMode {
        self.lbs.first().map(|lb| lb.mode()).unwrap_or(LutMode {
            inputs: self.arch.lut.min_inputs,
            planes: 1,
        })
    }

    /// Each programmed context's placement, in context order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Each programmed context's routing, in context order.
    pub fn routed(&self) -> &[RoutedContext] {
        &self.routed
    }

    /// Routing statistics per programmed context.
    pub fn routing_stats(&self) -> Vec<mcfpga_route::RoutingStats> {
        self.routed
            .iter()
            .map(|r| mcfpga_route::routing_stats(&self.graph, r))
            .collect()
    }

    /// Worst routed delay over programmed contexts.
    pub fn critical_delay(&self) -> f64 {
        self.routed
            .iter()
            .map(|r| r.critical_delay())
            .fold(0.0, f64::max)
    }

    // ---- fabric observability ------------------------------------------

    /// Congestion heatmap of one programmed context: per-edge final
    /// occupancy and PathFinder history cost, rankable via
    /// [`CongestionMap::hottest`](mcfpga_route::CongestionMap::hottest) and
    /// diffable across delta-compiles.
    pub fn congestion_map(&self, context: usize) -> Result<mcfpga_route::CongestionMap, SimError> {
        self.check_context(context)?;
        Ok(mcfpga_route::CongestionMap::measure(
            &self.graph,
            &self.routed[context],
        ))
    }

    /// Congestion heatmaps for every programmed context, in context order.
    pub fn congestion_maps(&self) -> Vec<mcfpga_route::CongestionMap> {
        self.routed
            .iter()
            .map(|r| mcfpga_route::CongestionMap::measure(&self.graph, r))
            .collect()
    }

    /// Every signal name `context` can resolve for [`MultiDevice::arm_probes`]:
    /// the netlist's primary-output names, then the `in*` / `reg*` / `lut*`
    /// index families.
    pub fn probe_signals(&self, context: usize) -> Result<Vec<String>, SimError> {
        self.check_context(context)?;
        Ok(observe::probe_names(&self.mapped[context]))
    }

    /// Arm `set`'s probes on `context`, replacing any previously armed set
    /// (and discarding its samples). Armed probes sample on every *batched*
    /// step of that context — all [`LANES`] lanes per word — into bounded
    /// per-probe rings; the scalar [`MultiDevice::step`] path is never
    /// sampled. Fails on the first unresolvable name.
    pub fn arm_probes(&mut self, context: usize, set: &ProbeSet) -> Result<(), SimError> {
        self.check_context(context)?;
        self.probes[context] = Some(ContextProbes::arm(&self.mapped[context], set, context)?);
        Ok(())
    }

    /// Disarm `context`'s probes, discarding buffered samples. Idempotent.
    pub fn disarm_probes(&mut self, context: usize) -> Result<(), SimError> {
        self.check_context(context)?;
        self.probes[context] = None;
        Ok(())
    }

    /// Buffered samples of `context`'s armed probes, in tap order (empty
    /// when nothing is armed).
    pub fn probe_captures(&self, context: usize) -> Result<Vec<ProbeCapture>, SimError> {
        self.check_context(context)?;
        Ok(self.probes[context]
            .as_ref()
            .map(|p| p.captures())
            .unwrap_or_default())
    }

    /// Render `context`'s probe captures as a [`Waveform`](mcfpga_obs::Waveform)
    /// — one 64-wide signal per probe (bit = stimulus lane), or one 1-wide
    /// signal per probe when `lane` is given — ready for
    /// [`to_vcd`](mcfpga_obs::Waveform::to_vcd).
    pub fn probe_waveform(
        &self,
        context: usize,
        lane: Option<usize>,
    ) -> Result<mcfpga_obs::Waveform, SimError> {
        let captures = self.probe_captures(context)?;
        Ok(observe::captures_to_waveform(
            &self.mapped[context].name,
            &captures,
            lane,
        ))
    }

    /// Start per-LUT activity accounting (idempotent; counters persist
    /// until [`MultiDevice::reset`]). Batched steps count every lane, a
    /// scalar step counts one lane-cycle. Also enables context-switch
    /// energy accounting even without a recorder.
    pub fn enable_activity_census(&mut self) {
        if self.census.is_none() {
            self.census = Some(ActivityCensus::new(self.mapped.len()));
        }
    }

    /// Activity census of `context`: per-LUT toggles, static probability,
    /// and the `toggle_rate × fanout` power proxy. All-zero (and NaN-free)
    /// when the census is disabled or the context never stepped.
    pub fn activity_census(&self, context: usize) -> Result<ActivityReport, SimError> {
        self.check_context(context)?;
        let m = &self.mapped[context];
        Ok(match &self.census {
            Some(census) => census.report(context, m),
            None => ActivityCensus::new(self.mapped.len()).report(context, m),
        })
    }

    /// Mean per-LUT toggle rate of `context` — the activity factor a
    /// dynamic-power estimate multiplies with; 0.0 (never NaN) for
    /// zero-cycle, zero-LUT, or census-disabled devices.
    pub fn toggle_rate(&self, context: usize) -> f64 {
        match &self.census {
            Some(census) if context < self.mapped.len() => census.toggle_rate(context),
            _ => 0.0,
        }
    }

    /// Cumulative context-switch energy under the per-bit proxy model
    /// (accounted on traced or census-enabled devices; all-zero otherwise).
    pub fn reconfig_energy(&self) -> ReconfigEnergy {
        ReconfigEnergy::from_totals(self.switch_count, self.switch_bits_flipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfpga_config::ColumnSetStats;
    use mcfpga_netlist::library;
    use mcfpga_netlist::words::{bits_to_u64, u64_to_bits};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn arch() -> ArchSpec {
        ArchSpec::paper_default()
    }

    #[test]
    fn four_distinct_circuits_time_multiplex_correctly() {
        let circuits = vec![
            library::adder(4),
            library::parity(8),
            library::comparator(4),
            library::gray_encoder(6),
        ];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        dev.check_routing().unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..40 {
            let c = rng.gen_range(0..circuits.len());
            dev.switch_context(c);
            let n_in = circuits[c].inputs().len();
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            let expect = circuits[c].eval_comb(&inputs).unwrap();
            let got = dev.step(&inputs);
            assert_eq!(got, expect, "context {c}");
        }
    }

    #[test]
    fn sequential_circuits_keep_independent_state() {
        let circuits = vec![library::counter(4), library::lfsr(8, 0x8E)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // Advance the counter to 2.
        dev.switch_context(0);
        dev.step(&[true]);
        dev.step(&[true]);
        // Run the LFSR a bit; counter state must be untouched.
        dev.switch_context(1);
        dev.step(&[]);
        dev.step(&[]);
        dev.switch_context(0);
        let out = dev.step(&[false]);
        assert_eq!(bits_to_u64(&out), 2);
    }

    #[test]
    fn switch_columns_show_real_mixed_statistics() {
        let circuits = vec![
            library::adder(4),
            library::multiplier(3),
            library::alu(4),
            library::popcount(6),
        ];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let stats = ColumnSetStats::measure(&dev.switch_usage().columns(), dev.ctx);
        assert!(stats.n_columns > 20);
        assert!(stats.n_constant < stats.n_columns, "mixed circuits differ");
        assert!(stats.change_rate > 0.0 && stats.change_rate < 1.0);
    }

    #[test]
    fn adder_still_adds_on_the_fabric() {
        let circuits = vec![library::adder(4), library::subtractor(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        for (x, y) in [(3u64, 9u64), (15, 1), (0, 0), (7, 7)] {
            dev.switch_context(0);
            let mut inp = u64_to_bits(x, 4);
            inp.extend(u64_to_bits(y, 4));
            inp.push(false);
            let out = dev.step(&inp);
            assert_eq!(bits_to_u64(&out[..4]) + ((out[4] as u64) << 4), x + y);
            dev.switch_context(1);
            let mut inp = u64_to_bits(x, 4);
            inp.extend(u64_to_bits(y, 4));
            let out = dev.step(&inp);
            assert_eq!(bits_to_u64(&out[..4]), x.wrapping_sub(y) & 0xF);
        }
    }

    #[test]
    fn critical_delay_is_positive() {
        let circuits = vec![library::adder(4)];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        assert!(dev.critical_delay() > 0.0);
    }

    fn compile_both_ways(circuits: &[Netlist]) -> (MultiDevice, MultiDevice) {
        let serial = MultiDevice::compile_opts(
            &arch(),
            circuits,
            &CompileOptions {
                parallel: false,
                ..Default::default()
            },
            &Recorder::disabled(),
        )
        .unwrap();
        let parallel = MultiDevice::compile_opts(
            &arch(),
            circuits,
            &CompileOptions {
                parallel: true,
                ..Default::default()
            },
            &Recorder::disabled(),
        )
        .unwrap();
        (serial, parallel)
    }

    fn assert_devices_identical(serial: &MultiDevice, parallel: &MultiDevice) {
        assert_eq!(serial.mapped, parallel.mapped);
        assert_eq!(serial.placements, parallel.placements);
        assert_eq!(serial.routed, parallel.routed);
        assert_eq!(serial.usage, parallel.usage);
        assert_eq!(serial.site_of, parallel.site_of);
        assert_eq!(serial.states, parallel.states);
        assert_eq!(serial.switch_bitstream(), parallel.switch_bitstream());
    }

    #[test]
    fn parallel_compile_is_bit_identical_to_serial() {
        let circuits = vec![
            library::adder(4),
            library::multiplier(3),
            library::alu(4),
            library::popcount(6),
        ];
        let (mut serial, mut parallel) = compile_both_ways(&circuits);
        assert_devices_identical(&serial, &parallel);
        // And the devices behave identically under stimulus.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let c = rng.gen_range(0..circuits.len());
            serial.switch_context(c);
            parallel.switch_context(c);
            let n_in = circuits[c].inputs().len();
            let inputs: Vec<bool> = (0..n_in).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(serial.step(&inputs), parallel.step(&inputs));
        }
    }

    #[test]
    fn parallelism_gauge_matches_resolved_workers() {
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        let opts = CompileOptions::default();
        MultiDevice::compile_opts(&arch(), &circuits, &opts, &rec).unwrap();
        // The gauge must report the worker count the options actually
        // resolve to (capped by the machine and the task count), not a
        // recomputation that can drift.
        let expected = opts.resolved_workers(circuits.len());
        assert!(expected >= 1 && expected <= circuits.len());
        assert_eq!(rec.gauge("flow.parallelism"), Some(expected as f64));
        // Serial compile always resolves to (and reports) 1.
        let serial = CompileOptions {
            parallel: false,
            ..Default::default()
        };
        assert_eq!(serial.resolved_workers(circuits.len()), 1);
        let rec = Recorder::enabled();
        MultiDevice::compile_opts(&arch(), &circuits, &serial, &rec).unwrap();
        assert_eq!(rec.gauge("flow.parallelism"), Some(1.0));
    }

    #[test]
    fn compile_emits_worker_tagged_events_per_context() {
        use mcfpga_obs::TracePhase;
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        let events = rec.trace_events();
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.name == "compile_context" && e.phase == TracePhase::Begin)
            .collect();
        let ends = events
            .iter()
            .filter(|e| e.name == "compile_context" && e.phase == TracePhase::End)
            .count();
        assert_eq!(begins.len(), circuits.len());
        assert_eq!(ends, circuits.len());
        let contexts: std::collections::BTreeSet<u64> = begins
            .iter()
            .map(|e| e.arg_u64("context").expect("context arg"))
            .collect();
        assert_eq!(contexts, (0..circuits.len() as u64).collect());
        let workers = CompileOptions::default().resolved_workers(circuits.len());
        for b in &begins {
            let w = b.arg_u64("worker").expect("worker arg") as usize;
            assert!(w < workers, "worker {w} out of pool of {workers}");
        }
    }

    #[test]
    fn context_switch_events_carry_paper_grounded_payloads() {
        let rec = Recorder::enabled();
        let circuits = vec![
            library::adder(4),
            library::parity(8),
            library::comparator(4),
        ];
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        dev.switch_context(1);
        dev.switch_context(2);
        dev.switch_context(2); // same context: no switch, no event
        let events: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "context_switch")
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].arg_u64("from"), Some(1));
        assert_eq!(events[1].arg_u64("to"), Some(2));

        // The traced change rate and flip count must agree with a direct
        // measurement on the device's own switch bitstreams.
        let ev = &events[0];
        assert_eq!(ev.arg_u64("from"), Some(0));
        assert_eq!(ev.arg_u64("to"), Some(1));
        let a = dev.switch_state_bits(0);
        let b = dev.switch_state_bits(1);
        let flipped = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        assert!(flipped > 0, "distinct circuits must flip some switches");
        assert_eq!(ev.arg_u64("bits_flipped"), Some(flipped));
        assert_eq!(
            ev.arg_f64("change_rate"),
            Some(mcfpga_config::measure_change_rate(&a, &b))
        );

        // Pattern classes partition the columns, and the SE decoder cost
        // agrees with synthesizing each column directly.
        let n_columns = ev.arg_u64("n_columns").expect("n_columns");
        assert_eq!(n_columns as usize, dev.switch_usage().columns().len());
        assert_eq!(
            ev.arg_u64("n_constant").unwrap()
                + ev.arg_u64("n_single_bit").unwrap()
                + ev.arg_u64("n_general").unwrap(),
            n_columns
        );
        let se: u64 = dev
            .switch_usage()
            .columns()
            .iter()
            .map(|&col| mcfpga_rcm::synthesize(col, dev.ctx).cost().n_ses as u64)
            .sum();
        assert_eq!(ev.arg_u64("se_cost_total"), Some(se));
    }

    #[test]
    fn try_step_rejects_bad_input_arity_without_panicking() {
        let circuits = vec![library::adder(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // adder(4) takes 9 inputs (a, b, cin); drive it with 3.
        let err = dev.try_step(&[false; 3]).unwrap_err();
        assert_eq!(
            err,
            SimError::InputArity {
                context: 0,
                expected: 9,
                got: 3
            }
        );
        // The failed step must not count as a simulated cycle.
        let rec = Recorder::enabled();
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        assert!(dev.try_step(&[false; 3]).is_err());
        assert_eq!(rec.counter("sim.steps"), 0);
        // A correct step still works afterwards.
        assert!(dev.try_step(&[false; 9]).is_ok());
        assert_eq!(rec.counter("sim.steps"), 1);
    }

    #[test]
    fn try_switch_context_rejects_unprogrammed_contexts() {
        let circuits = vec![library::adder(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let err = dev.try_switch_context(3).unwrap_err();
        assert_eq!(
            err,
            SimError::ContextNotProgrammed {
                context: 3,
                programmed: 1
            }
        );
        assert_eq!(dev.active_context(), 0);
        dev.try_switch_context(0).unwrap();
    }

    #[test]
    fn try_set_registers_rejects_bad_counts() {
        let circuits = vec![library::counter(4)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let err = dev.try_set_registers(0, &[true; 17]).unwrap_err();
        assert_eq!(
            err,
            SimError::RegisterCount {
                context: 0,
                expected: 4,
                got: 17
            }
        );
        let err = dev.try_set_registers(5, &[true; 4]).unwrap_err();
        assert!(matches!(err, SimError::ContextNotProgrammed { .. }));
        dev.try_set_registers(0, &[true, false, true, false])
            .unwrap();
        assert_eq!(dev.registers(0), &[true, false, true, false]);
    }

    #[test]
    fn sim_errors_display_the_offending_values() {
        let e = SimError::InputArity {
            context: 2,
            expected: 9,
            got: 3,
        };
        assert_eq!(e.to_string(), "context 2 expects 9 inputs, got 3");
        let e = SimError::UnknownProbe {
            context: 1,
            name: "bogus".into(),
        };
        assert_eq!(
            e.to_string(),
            "context 1 has no probe-able signal named \"bogus\""
        );
    }

    #[test]
    fn unknown_probe_names_error_in_band() {
        let mut dev = MultiDevice::compile(&arch(), &[library::adder(4)]).unwrap();
        let err = dev
            .arm_probes(0, &ProbeSet::new().tap("no_such_wire"))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownProbe {
                context: 0,
                name: "no_such_wire".into()
            }
        );
        // Every advertised name arms cleanly.
        let names = dev.probe_signals(0).unwrap();
        let mut set = ProbeSet::new();
        for n in &names {
            set = set.tap(n);
        }
        dev.arm_probes(0, &set).unwrap();
        assert_eq!(dev.probe_captures(0).unwrap().len(), names.len());
    }

    #[test]
    fn output_probes_match_batched_outputs_on_every_lane() {
        let circuits = vec![library::adder(4), library::parity(8)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        // Tap every primary output of context 0 by name.
        let n_outs = dev.n_outputs(0).unwrap();
        let names = dev.probe_signals(0).unwrap();
        let mut set = ProbeSet::new();
        for n in &names[..n_outs] {
            set = set.tap(n);
        }
        dev.arm_probes(0, &set).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); n_outs];
        for step in 0..12 {
            // Interleave the other context: its steps must not sample.
            dev.switch_context(step % 2);
            let n_in = dev.n_inputs(step % 2).unwrap();
            let words: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            let out = dev.step_batch(&words);
            if step % 2 == 0 {
                for (o, word) in out.iter().enumerate() {
                    expected[o].push(*word);
                }
            }
        }
        for (o, cap) in dev.probe_captures(0).unwrap().iter().enumerate() {
            assert_eq!(cap.samples, expected[o], "probe {} ({})", o, cap.name);
            assert_eq!(cap.dropped, 0);
        }
        // The waveform export carries the same words, one 64-wide signal
        // per probe, and a chosen lane extracts to 1-wide signals.
        let wave = dev.probe_waveform(0, None).unwrap();
        assert_eq!(wave.signals().len(), n_outs);
        assert_eq!(wave.signals()[0].samples, expected[0]);
        let lane0 = dev.probe_waveform(0, Some(0)).unwrap();
        assert!(lane0.signals().iter().all(|s| s.width == 1));
    }

    #[test]
    fn census_counts_activity_and_switch_energy_together() {
        let circuits = vec![library::adder(4), library::multiplier(3)];
        let mut dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        dev.enable_activity_census();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..20 {
            dev.switch_context(step % 2);
            let n_in = dev.n_inputs(step % 2).unwrap();
            let words: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            dev.step_batch(&words);
        }
        for c in 0..2 {
            let report = dev.activity_census(c).unwrap();
            assert_eq!(report.lane_cycles, 10 * LANES as u64);
            assert!(report.toggles_total > 0, "random stimulus must toggle");
            for row in &report.luts {
                assert!((row.power_proxy - row.toggle_rate * row.fanout as f64).abs() < 1e-12);
                assert!(!row.static_probability.is_nan());
            }
            let ranked = report.ranked();
            assert!(ranked
                .windows(2)
                .all(|w| w[0].power_proxy >= w[1].power_proxy));
            assert!(dev.toggle_rate(c) > 0.0);
        }
        // Census-enabled devices account switch energy without a recorder:
        // 19 switches, each flipping the same 0<->1 bit distance.
        let a = dev.switch_state_bits(0);
        let b = dev.switch_state_bits(1);
        let dist = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        let energy = dev.reconfig_energy();
        assert_eq!(energy.switches, 19);
        assert_eq!(energy.bits_flipped, 19 * dist);
        assert!((energy.energy_pj - observe::switch_energy_pj(19 * dist)).abs() < 1e-9);
        assert_eq!(energy.mean_bits_per_switch, dist as f64);
    }

    #[test]
    fn traced_switch_events_carry_the_energy_model() {
        let rec = Recorder::enabled();
        let circuits = vec![library::adder(4), library::parity(8)];
        let mut dev = MultiDevice::compile_with(&arch(), &circuits, &rec).unwrap();
        dev.switch_context(1);
        dev.switch_context(0);
        let events: Vec<_> = rec
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "context_switch")
            .collect();
        assert_eq!(events.len(), 2);
        let mut cum = 0.0;
        for e in &events {
            let bits = e.arg_u64("bits_flipped").unwrap();
            let pj = e.arg_f64("energy_pj").unwrap();
            assert!((pj - observe::switch_energy_pj(bits)).abs() < 1e-9);
            cum += pj;
            assert!((e.arg_f64("energy_pj_cum").unwrap() - cum).abs() < 1e-9);
        }
        assert_eq!(
            rec.counter("sim.switch.bits_flipped"),
            dev.reconfig_energy().bits_flipped
        );
    }

    #[test]
    fn congestion_maps_expose_per_context_occupancy() {
        let circuits = vec![library::adder(4), library::multiplier(3)];
        let dev = MultiDevice::compile(&arch(), &circuits).unwrap();
        let maps = dev.congestion_maps();
        assert_eq!(maps.len(), 2);
        for (c, map) in maps.iter().enumerate() {
            assert_eq!(map, &dev.congestion_map(c).unwrap());
            assert!(!map.edges.is_empty(), "routed context uses edges");
            let total: usize = map.edges.iter().map(|e| e.occupancy).sum();
            assert_eq!(total, dev.routing_stats()[c].total_wirelength);
            assert!(map.peak_utilization() <= 1.0, "converged routing");
            assert!(!map.hottest(4).is_empty());
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use mcfpga_netlist::{random_netlist, RandomNetlistParams};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Parallel compile produces a MultiDevice identical to serial
        /// compile across random workloads and seeds: same placements,
        /// routing trees, switch usage, logic-block assignment, and initial
        /// state.
        #[test]
        fn parallel_equals_serial_on_random_workloads(seed in 0u64..10_000, n_ctx in 1usize..=4) {
            let arch = ArchSpec::paper_default();
            let circuits: Vec<_> = (0..n_ctx)
                .map(|c| {
                    random_netlist(
                        RandomNetlistParams {
                            n_inputs: 6,
                            n_gates: 30,
                            n_outputs: 4,
                            dff_fraction: 0.1,
                        },
                        seed.wrapping_add(c as u64),
                    )
                })
                .collect();
            let serial = MultiDevice::compile_opts(
                &arch,
                &circuits,
                &CompileOptions { parallel: false, ..Default::default() },
                &Recorder::disabled(),
            );
            let parallel = MultiDevice::compile_opts(
                &arch,
                &circuits,
                &CompileOptions { parallel: true, ..Default::default() },
                &Recorder::disabled(),
            );
            match (serial, parallel) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.mapped, &p.mapped);
                    prop_assert_eq!(&s.placements, &p.placements);
                    prop_assert_eq!(&s.routed, &p.routed);
                    prop_assert_eq!(&s.usage, &p.usage);
                    prop_assert_eq!(&s.site_of, &p.site_of);
                    prop_assert_eq!(&s.states, &p.states);
                    prop_assert_eq!(s.switch_bitstream(), p.switch_bitstream());
                }
                // Both paths must agree on failure too (first in-order error).
                (Err(se), Err(pe)) => prop_assert_eq!(se.to_string(), pe.to_string()),
                (s, p) => prop_assert!(
                    false,
                    "serial {:?} vs parallel {:?} disagree on success",
                    s.map(|_| ()), p.map(|_| ())
                ),
            }
        }
    }
}
