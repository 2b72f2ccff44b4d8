//! The traced run's direct layer replay: the workload's own seeded requests
//! pushed one call at a time through the public functions of the layers
//! behind the server — map, place, route, kernel lowering and evaluation,
//! fingerprint, delta compile, snapshot, router — each call in a span. The
//! same requests also go through a server whose cache is full, so that the
//! cache and restore counters are measured on every workload.

use std::hint::black_box;
use std::time::Instant;

use mcfpga_map::map_netlist;
use mcfpga_netlist::Netlist;
use mcfpga_obs::Recorder;
use mcfpga_place::{place_with, AnnealOptions, PlacementProblem};
use mcfpga_route::{nets_from_placement, route_context_with, RoutingGraph};
use mcfpga_serve::{
    CompileJob, CompileOutcome, CompiledDesign, DesignFingerprint, ServeReport, Server,
    ShardRouter, SimJob,
};
use mcfpga_sim::{KernelScratch, MultiDevice, LANES};

use crate::spans::{SpanId, Tracer, NONE};
use crate::stats::median;
use crate::workloads::{arch, config, design, mix, options, CONTEXTS, SIM_CYCLES};
use crate::{metric, Metric};

/// Replay spans carry request ids from here on, apart from timed ops.
const REPLAY_REQUEST: u64 = 1 << 48;
/// Design indices of the designs that fill the replay server's cache, apart
/// from the workloads' own.
const FILL_INDEX: u64 = 1 << 44;
/// Repeats of the microsecond-scale fingerprint call.
const FINGERPRINT_REPEATS: usize = 8;
/// Direct kernel steps timed per context.
const KERNEL_WORDS: usize = 4096;
/// Served sim jobs per design.
const SERVED_JOBS: usize = 16;
/// Chunk width and chunk count of the `run_throughput` ceiling run.
const RAW_WIDTH: usize = 8;
const RAW_CHUNKS: usize = 512;
/// Checkpoint → restore → close rounds per design.
const SNAPSHOT_ROUNDS: usize = 8;
/// `ShardRouter::session_owner` calls timed.
const OWNER_CALLS: usize = 2000;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Per-design figures, each reduced by its median at the end.
#[derive(Default)]
struct Figures {
    map: Vec<f64>,
    place: Vec<f64>,
    route: Vec<f64>,
    lower: Vec<f64>,
    direct: Vec<f64>,
    gap: Vec<f64>,
    fingerprint: Vec<f64>,
    delta: Vec<f64>,
    reuse: Vec<f64>,
    us_per_word: Vec<f64>,
    word_ops: Vec<f64>,
    overhead: Vec<f64>,
    served_to_raw: Vec<f64>,
    checkpoint: Vec<f64>,
    restore: Vec<f64>,
    close: Vec<f64>,
    bytes: Vec<f64>,
}

/// Where replay spans hang: their parent span and request id.
#[derive(Clone, Copy)]
struct At {
    root: SpanId,
    req: u64,
}

fn serve_compile(server: &Server, circuits: &[Netlist]) -> Result<CompileOutcome, String> {
    server
        .submit_compile(CompileJob::new(arch(), circuits.to_vec()).with_options(options()))
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())
}

fn ratio(num: u64, den: u64) -> Result<f64, String> {
    if den == 0 {
        Err("layer replay: a ratio with nothing counted".to_string())
    } else {
        Ok(num as f64 / den as f64)
    }
}

pub fn replay(
    seed: u64,
    pairs: &[(Vec<Netlist>, Vec<Netlist>)],
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    if pairs.is_empty() {
        return Err("layer replay needs at least one request".to_string());
    }
    // Separate recorders keep the cold pipeline's place/route counters
    // apart from the delta compile's reuse counters, and the served cache's
    // counters apart from the snapshot servers' restore counters.
    let cold_rec = Recorder::enabled();
    let delta_rec = Recorder::enabled();
    let cache_rec = Recorder::enabled();
    let snapshot_rec = Recorder::enabled();
    let mut f = Figures::default();
    let router = ShardRouter::new(2, config());
    // The served workloads run on a full cache: fill this one first.
    let cache_server = Server::with_recorder(config(), &cache_rec);
    for i in 0..config().cache_capacity as u64 {
        let o = serve_compile(&cache_server, &design(seed, FILL_INDEX + i))?;
        cache_server.close_session(o.session);
    }
    let before = ServeReport::from_recorder(&cache_rec);
    let mut owned = Vec::with_capacity(pairs.len());
    for (p, (base, variant)) in pairs.iter().enumerate() {
        let req = REPLAY_REQUEST + p as u64;
        let at = At {
            root: tracer.begin("layers", NONE, req),
            req,
        };
        let mut device = pipeline(base, &cold_rec, tracer, at, &mut f)?;
        // Pairs may share a base (`delta`'s all do): only its first serve
        // misses.
        let first = !pairs[..p].iter().any(|(earlier, _)| earlier == base);
        served_cache(&cache_server, base, variant, first, tracer, at, &mut f)?;
        let base_design = CompiledDesign::compile(&arch(), base, &options())
            .map_err(|e| format!("compile: {e}"))?;
        delta(variant, &base_design, &delta_rec, tracer, at, &mut f)?;
        let us_per_word = kernel(&base_design, tracer, at, &mut f);
        served_sim(base, &mut device, &us_per_word, tracer, at, &mut f)?;
        snapshot(base, &snapshot_rec, tracer, at, &mut f)?;
        owned.push(
            router
                .submit(CompileJob::new(arch(), base.clone()).with_options(options()))
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())?
                .into_compile()
                .ok_or("not a compile outcome")?
                .session,
        );
        tracer.end(at.root);
    }
    let t = Instant::now();
    tracer.time("router.owner", NONE, REPLAY_REQUEST, || {
        for k in 0..OWNER_CALLS {
            black_box(router.session_owner(owned[k % owned.len()]));
        }
    });
    let owner_ms = ms(t) / OWNER_CALLS as f64;

    let cache = ServeReport::from_recorder(&cache_rec);
    let lookups =
        (cache.cache_hits + cache.cache_misses) - (before.cache_hits + before.cache_misses);
    let restores = ServeReport::from_recorder(&snapshot_rec);
    let designs = pairs.len() as f64;
    let per_design = |rec: &Recorder, name: &str| rec.counter(name) as f64 / designs;
    let attempted = cold_rec.counter("place.moves_attempted");
    let accept_ratio = if attempted == 0 {
        0.0
    } else {
        cold_rec.counter("place.moves_accepted") as f64 / attempted as f64
    };
    Ok(vec![
        metric(
            "cache.hit_ratio",
            ratio(cache.cache_hits - before.cache_hits, lookups)?,
            "ratio",
        ),
        metric(
            "cache.near_hit_ratio",
            ratio(cache.cache_near_hits - before.cache_near_hits, lookups)?,
            "ratio",
        ),
        metric(
            "cache.evictions",
            ratio(cache.cache_evictions - before.cache_evictions, lookups)?,
            "1/op",
        ),
        metric(
            "restore.recompile_ratio",
            ratio(restores.restore_recompiles, restores.restores)?,
            "ratio",
        ),
        metric("design.fingerprint_ms", median(&f.fingerprint), "ms"),
        metric("delta.compile_ms", median(&f.delta), "ms"),
        metric("delta.reuse_ratio", median(&f.reuse), "ratio"),
        metric("map.ms", median(&f.map), "ms"),
        metric("place.ms", median(&f.place), "ms"),
        metric("place.moves_attempted", attempted as f64 / designs, "count"),
        metric("place.accept_ratio", accept_ratio, "ratio"),
        metric(
            "place.delta_reused",
            per_design(&delta_rec, "place.delta_reused"),
            "count",
        ),
        metric("route.ms", median(&f.route), "ms"),
        metric(
            "route.iterations",
            per_design(&cold_rec, "route.iterations"),
            "count",
        ),
        metric(
            "route.nets_rerouted",
            per_design(&cold_rec, "route.nets_rerouted"),
            "count",
        ),
        metric(
            "route.delta_reused",
            per_design(&delta_rec, "route.delta_reused"),
            "count",
        ),
        metric("lower.ms", median(&f.lower), "ms"),
        metric("layers.direct_ms", median(&f.direct), "ms"),
        metric("layers.gap_ms", median(&f.gap), "ms"),
        metric("kernel.us_per_word", median(&f.us_per_word), "us"),
        metric("kernel.word_ops", median(&f.word_ops), "count"),
        metric("sim.session_overhead_ms", median(&f.overhead), "ms"),
        metric("sim.served_to_raw", median(&f.served_to_raw), "ratio"),
        metric("snapshot.checkpoint_ms", median(&f.checkpoint), "ms"),
        metric("snapshot.restore_ms", median(&f.restore), "ms"),
        metric("snapshot.close_ms", median(&f.close), "ms"),
        metric("router.owner_ms", owner_ms, "ms"),
        metric("snapshot.bytes", median(&f.bytes), "bytes"),
    ])
}

/// The cold compile pipeline of one design, stage by stage, as a compile
/// job runs it (serial, with the per-context annealing seed the compile
/// pipeline derives). Returns a fresh device whose kernels are lowered.
fn pipeline(
    circuits: &[Netlist],
    rec: &Recorder,
    tracer: &mut Tracer,
    at: At,
    f: &mut Figures,
) -> Result<MultiDevice, String> {
    let (arch, opts) = (arch(), options());
    let t = Instant::now();
    let graph = tracer.time("route.graph", at.root, at.req, || {
        RoutingGraph::build(&arch)
    });
    let (mut map_ms, mut place_ms, mut route_ms) = (0.0, 0.0, ms(t));
    for (c, netlist) in circuits.iter().enumerate() {
        let t = Instant::now();
        let mapped = tracer
            .time("map", at.root, at.req, || {
                map_netlist(netlist, arch.lut.min_inputs)
            })
            .map_err(|e| format!("map: {e}"))?;
        map_ms += ms(t);
        let t = Instant::now();
        let (problem, placement) = tracer
            .time("place", at.root, at.req, || {
                PlacementProblem::from_mapped(&mapped, &arch).map(|problem| {
                    let anneal = AnnealOptions {
                        seed: 0xC0FFEE ^ c as u64,
                        ..Default::default()
                    };
                    let placement = place_with(&problem, &anneal, rec);
                    (problem, placement)
                })
            })
            .map_err(|e| format!("place: {e}"))?;
        place_ms += ms(t);
        let t = Instant::now();
        let nets = nets_from_placement(&problem, &placement);
        tracer
            .time("route", at.root, at.req, || {
                route_context_with(&graph, &nets, &opts.route, rec)
            })
            .map_err(|e| format!("route: {e}"))?;
        route_ms += ms(t);
    }
    let mut device = MultiDevice::compile_opts(&arch, circuits, &opts, &Recorder::disabled())
        .map_err(|e| format!("compile: {e}"))?;
    // Kernels lower lazily: the first `kernel(c)` on a fresh device pays.
    let t = Instant::now();
    tracer
        .time("lower", at.root, at.req, || {
            (0..circuits.len()).try_for_each(|c| device.kernel(c).map(|_| ()))
        })
        .map_err(|e| format!("lower: {e}"))?;
    let lower_ms = ms(t);
    f.map.push(map_ms);
    f.place.push(place_ms);
    f.route.push(route_ms);
    f.lower.push(lower_ms);
    f.direct.push(map_ms + place_ms + route_ms + lower_ms);
    Ok(device)
}

/// The served paths of one request pair on a full cache: the base misses
/// and compiles cold if it is served `first` (its service time against the
/// direct pipeline's total is the gap), the variant is a near hit reusing
/// all contexts but one, and the base again is an exact hit. Any other path
/// is an error.
fn served_cache(
    server: &Server,
    base: &[Netlist],
    variant: &[Netlist],
    first: bool,
    tracer: &mut Tracer,
    at: At,
    f: &mut Figures,
) -> Result<(), String> {
    let base_out = tracer.time("serve.compile.base", at.root, at.req, || {
        serve_compile(server, base)
    })?;
    let near = tracer.time("serve.compile.near", at.root, at.req, || {
        serve_compile(server, variant)
    })?;
    let hit = tracer.time("serve.compile.hit", at.root, at.req, || {
        serve_compile(server, base)
    })?;
    let paths_ok = base_out.cache_hit != first
        && base_out.delta.is_none()
        && !near.cache_hit
        && near
            .delta
            .is_some_and(|d| d.contexts_reused == CONTEXTS - 1)
        && hit.cache_hit;
    if !paths_ok {
        return Err("layer replay: a served compile took the wrong cache path".to_string());
    }
    if first {
        let direct = f.direct.last().copied().unwrap_or(0.0);
        f.gap.push(base_out.service_us as f64 / 1e3 - direct);
    }
    for o in [base_out, near, hit] {
        server.close_session(o.session);
    }
    Ok(())
}

/// Fingerprint the variant, then delta-compile it against the base.
fn delta(
    variant: &[Netlist],
    base: &CompiledDesign,
    rec: &Recorder,
    tracer: &mut Tracer,
    at: At,
    f: &mut Figures,
) -> Result<(), String> {
    let (arch, opts) = (arch(), options());
    let mut fingerprint = Vec::with_capacity(FINGERPRINT_REPEATS);
    for _ in 0..FINGERPRINT_REPEATS {
        let t = Instant::now();
        black_box(tracer.time("design.fingerprint", at.root, at.req, || {
            DesignFingerprint::new(&arch, variant, &opts)
        }));
        fingerprint.push(ms(t));
    }
    f.fingerprint.push(median(&fingerprint));
    let t = Instant::now();
    let (_, stats) = tracer
        .time("delta.compile", at.root, at.req, || {
            CompiledDesign::delta_compile_with(&arch, variant, &opts, rec, base, None)
        })
        .map_err(|e| format!("delta compile: {e}"))?;
    f.delta.push(ms(t));
    f.reuse
        .push(stats.contexts_reused as f64 / stats.contexts_total as f64);
    Ok(())
}

/// Direct `CompiledKernel::step` per context; returns µs per 64-lane word
/// for each context.
fn kernel(design: &CompiledDesign, tracer: &mut Tracer, at: At, f: &mut Figures) -> Vec<f64> {
    (0..design.n_contexts())
        .map(|c| {
            let kernel = design.kernel(c);
            let inputs: Vec<Vec<u64>> = (0..64u64)
                .map(|w| {
                    (0..kernel.n_inputs() as u64)
                        .map(|i| mix(w << 8 | i))
                        .collect()
                })
                .collect();
            let mut regs = vec![0u64; kernel.n_regs()];
            let mut scratch = KernelScratch::new();
            let mut out = Vec::new();
            let t = Instant::now();
            tracer.time("kernel.step", at.root, at.req, || {
                for words in inputs.iter().cycle().take(KERNEL_WORDS) {
                    kernel.step(words, &mut regs, &mut scratch, &mut out);
                    black_box(&out);
                }
            });
            let us = t.elapsed().as_secs_f64() * 1e6 / KERNEL_WORDS as f64;
            f.us_per_word.push(us);
            f.word_ops.push(kernel.word_ops() as f64);
            us
        })
        .collect()
}

/// Served sim jobs of the `sim` shape on a private one-worker server,
/// against the direct kernel cost and the `run_throughput` W=8 ceiling on
/// the same design.
fn served_sim(
    circuits: &[Netlist],
    device: &mut MultiDevice,
    us_per_word: &[f64],
    tracer: &mut Tracer,
    at: At,
    f: &mut Figures,
) -> Result<(), String> {
    let server = Server::new(config());
    let session = serve_compile(&server, circuits)?.session;
    let mut served_s = 0.0;
    for j in 0..SERVED_JOBS {
        let c = j % CONTEXTS;
        let n_in = device.n_inputs(c).map_err(|e| e.to_string())? as u64;
        let words: Vec<Vec<u64>> = (0..SIM_CYCLES as u64)
            .map(|t| {
                (0..n_in)
                    .map(|i| mix((j as u64) << 40 | t << 8 | i))
                    .collect()
            })
            .collect();
        let t = Instant::now();
        let o = tracer.time("sim.served", at.root, at.req, || {
            server
                .submit_sim(SimJob::new(session, c, words))
                .map_err(|e| e.to_string())?
                .wait()
                .map_err(|e| e.to_string())
        })?;
        served_s += t.elapsed().as_secs_f64();
        f.overhead
            .push((o.service_us as f64 - SIM_CYCLES as f64 * us_per_word[c]) / 1e3);
    }
    let served = (SERVED_JOBS * SIM_CYCLES * LANES) as f64 / served_s;
    let mut raw_s = 0.0;
    for c in 0..CONTEXTS {
        let n_in = device.n_inputs(c).map_err(|e| e.to_string())?;
        let stimulus: Vec<u64> = (0..RAW_CHUNKS * n_in * RAW_WIDTH)
            .map(|x| mix(x as u64))
            .collect();
        let t = Instant::now();
        let out = tracer
            .time("sim.raw", at.root, at.req, || {
                device.try_run_throughput(c, &stimulus, RAW_WIDTH, 1)
            })
            .map_err(|e| e.to_string())?;
        raw_s += t.elapsed().as_secs_f64();
        black_box(out);
    }
    let raw = (CONTEXTS * RAW_CHUNKS * LANES * RAW_WIDTH) as f64 / raw_s;
    f.served_to_raw.push(served / raw);
    Ok(())
}

/// Checkpoint → restore → close, bouncing one session between two servers
/// that both cache the design: the `migrate` op without the router. Their
/// restores count into `rec`.
fn snapshot(
    circuits: &[Netlist],
    rec: &Recorder,
    tracer: &mut Tracer,
    at: At,
    f: &mut Figures,
) -> Result<(), String> {
    let servers = [
        Server::with_recorder(config(), rec),
        Server::with_recorder(config(), rec),
    ];
    let first = serve_compile(&servers[0], circuits)?;
    let spare = serve_compile(&servers[1], circuits)?.session;
    servers[1].close_session(spare);
    // Step once so the registers carry state worth moving.
    let n_in = first.design.kernel(0).n_inputs() as u64;
    let words = (0..16u64)
        .map(|t| (0..n_in).map(|i| mix(t << 8 | i)).collect())
        .collect();
    servers[0]
        .submit_sim(SimJob::new(first.session, 0, words))
        .map_err(|e| e.to_string())?
        .wait()
        .map_err(|e| e.to_string())?;
    let mut session = first.session;
    for r in 0..SNAPSHOT_ROUNDS {
        let (from, to) = (&servers[r % 2], &servers[(r + 1) % 2]);
        let t = Instant::now();
        let snap = tracer
            .time("snapshot.checkpoint", at.root, at.req, || {
                from.checkpoint_session(session)
            })
            .map_err(|e| e.to_string())?;
        f.checkpoint.push(ms(t));
        if r == 0 {
            f.bytes.push(snap.serialized_bytes() as f64);
        }
        let t = Instant::now();
        let restored = tracer
            .time("snapshot.restore", at.root, at.req, || {
                to.restore_session(snap)
            })
            .map_err(|e| e.to_string())?;
        f.restore.push(ms(t));
        let t = Instant::now();
        tracer.time("snapshot.close", at.root, at.req, || {
            from.close_session(session)
        });
        f.close.push(ms(t));
        session = restored.session;
    }
    Ok(())
}
