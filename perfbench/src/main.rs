//! Benchmark of the served compile, delta, sim and migrate paths.
//!
//! One process, one client thread, closed loop: the harness drives
//! `mcfpga-serve` (and, in traced runs, the map/place/route/sim layers)
//! through their public APIs, checks every output, and prints one JSON
//! result line last. `README.md` beside this crate describes the workloads
//! and metrics; `run.py` builds this binary and stamps the environment.

mod layers;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mcfpga_obs::Recorder;

use spans::Tracer;
use stats::{median, Samples};
use workloads::{Budget, Workload};

/// Setups per timed run: at least `SETUP_REPS`, and more, up to
/// `SETUP_MAX_REPS`, until they add up to `SETUP_MIN_S`, so that they span
/// more than one of the host's speed phases (1–5 s) and a short setup still
/// gets a steady median. `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 60;
const SETUP_MIN_S: f64 = 4.0;
/// Ops per workload in smoke mode.
const SMOKE_OPS: u64 = 8;
/// Base/variant request pairs a traced run replays through the layers.
const LAYER_PAIRS: usize = 4;
/// A traced run alternates untraced and traced windows of about this
/// length, so that both see the same host speed phases.
const TRACE_WINDOW_S: f64 = 1.0;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spans: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let (mut trace, mut smoke, mut spans) = (false, false, None);
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s > 0.0 && s < 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
            spans,
        })
    }

    fn budget(&self, seconds: f64) -> Budget {
        Budget::new(seconds, if self.smoke { SMOKE_OPS } else { u64::MAX })
    }
}

/// What one run prints: the result line's fields, plus detail facts
/// (sample counts, fail rate, service time) for the run's record.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok(report) => {
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end run: set up several times, time the last setup's
/// workload with tracing off, then check outputs.
fn timed(args: &Args) -> Result<Report, String> {
    let (min_reps, min_s) = if args.smoke {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_MIN_S)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = None;
    while setup_s.len() < min_reps
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < min_s)
    {
        // Tear the previous setup down first: every setup starts alike.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(workloads::setup(
            args.workload,
            args.seed,
            &Recorder::disabled(),
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.ok_or("no setup ran")?;
    let samples = bench.run(&args.budget(args.seconds), &mut Tracer::disabled());
    let failed = samples.failed + bench.verify();
    drop(bench);
    let n = samples.latency.len();
    Ok(Report {
        attempted: samples.attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("ops_per_s", samples.ops_per_s(), "1/s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ],
        // p50, p99 and the fail rate are end-to-end figures too, but
        // unbounded: the latency percentiles jump between the host's speed
        // phases (README.md), and the fail rate is 0 (the result line
        // carries `failed`).
        detail: vec![
            ("p50_ms", samples.latency.percentile(0.5) / 1e3),
            ("p99_ms", samples.latency.percentile(0.99) / 1e3),
            ("fail_rate", failed as f64 / samples.attempted.max(1) as f64),
            ("samples", n as f64),
            ("beyond_p99", stats::beyond(n, 0.99) as f64),
            ("wall_s", samples.wall_s),
            ("service_ms", samples.service.percentile(0.5) / 1e3),
            ("wait_ms", samples.wait.percentile(0.5) / 1e3),
        ],
    })
}

/// The per-layer run: two setups of the same inputs, one untraced and one
/// traced, run in alternating windows (their `ops_per_s` ratio is the
/// tracing overhead), then the layer replay.
fn traced(args: &Args) -> Result<Report, String> {
    let mut plain_bench = workloads::setup(args.workload, args.seed, &Recorder::disabled())?;
    let mut bench = workloads::setup(args.workload, args.seed, &Recorder::enabled())?;
    let mut tracer = Tracer::enabled();
    let rounds = if args.smoke {
        1
    } else {
        ((args.seconds / (2.0 * TRACE_WINDOW_S)).round() as usize).max(1)
    };
    let window = args.seconds / (2 * rounds) as f64;
    let (mut plain, mut samples) = (Samples::new(), Samples::new());
    for _ in 0..rounds {
        plain.merge(&plain_bench.run(&args.budget(window), &mut Tracer::disabled()));
        samples.merge(&bench.run(&args.budget(window), &mut tracer));
    }
    let failed = plain.failed + samples.failed + plain_bench.verify() + bench.verify();
    drop(plain_bench);
    let pairs = bench.layer_inputs(if args.smoke { 1 } else { LAYER_PAIRS });
    drop(bench);
    let layers = layers::replay(args.seed, &pairs, &mut tracer)?;

    let mut metrics = vec![
        metric("serve.wait_ms", samples.wait.percentile(0.5) / 1e3, "ms"),
        metric(
            "serve.service_ms",
            samples.service.percentile(0.5) / 1e3,
            "ms",
        ),
        metric(
            "serve.handoff_ms",
            samples.handoff.percentile(0.5) / 1e3,
            "ms",
        ),
        metric(
            "trace.overhead_ratio",
            samples.ops_per_s() / plain.ops_per_s(),
            "ratio",
        ),
    ];
    metrics.extend(layers);
    if let Some(path) = &args.spans {
        tracer
            .write(path, args.workload.name(), args.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let attempted = plain.attempted + samples.attempted;
    Ok(Report {
        attempted,
        failed,
        metrics,
        detail: vec![
            ("fail_rate", failed as f64 / attempted.max(1) as f64),
            ("untraced_ops_per_s", plain.ops_per_s()),
            ("traced_ops_per_s", samples.ops_per_s()),
            ("spans", tracer.len() as f64),
        ],
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Two lines: the detail object, then the result object, last.
fn print(r: &Report) {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut detail = vec![
        format!("\"profile\":\"{profile}\""),
        format!("\"nproc\":{nproc}"),
    ];
    detail.extend(
        r.detail
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_number(*v))),
    );
    println!("{{\"detail\":{{{}}}}}", detail.join(","));
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}
