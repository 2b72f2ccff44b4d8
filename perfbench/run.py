#!/usr/bin/env python3
"""Build and run the served-path benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload compile --seed 1 --trace 0
    python3 perfbench/run.py --workload all           # 4 workloads x 6 metrics
    python3 perfbench/run.py --workload sim --smoke   # a few ops (tests)

Run from the repository root. A run measures for `run_seconds` of
BENCHMARK.json unless --seconds says otherwise. The last line of standard output is the
result object. The run's full record, stamped with its environment, goes
to perfbench/results/; traced runs also write their span file there.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("compile", "delta", "sim", "migrate")
DEFAULT_SEED = 1
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# One run measures for --seconds (at most MAX_SECONDS), then checks its
# outputs, all within RUN_TIMEOUT_S.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def build():
    """Compile the harness in release mode; return the binary's path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return target / "release" / "perfbench"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def environment(args, detail, attempted):
    """The machine and build a result came from."""
    toplevel = first_line(["git", "rev-parse", "--show-toplevel"])
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    return {
        "nproc": detail.get("nproc"),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "profile": detail.get("profile"),
        "rustc": first_line(["rustc", "-V"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]) if in_git else "unknown (not a git checkout)",
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": attempted,
    }


def run_one(binary, workload, args):
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(RESULTS / f"{stem}.spans.json")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench: {workload} run failed (exit {proc.returncode})")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    record = {"workload": workload, "trace": args.trace,
              "env": environment(args, detail, result["attempted"]),
              "detail": detail, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def unbounded(record):
    """A record's metrics plus the end-to-end figures kept out of
    BENCHMARK.json (p50, p99, fail rate), which untraced runs report in
    detail."""
    metrics = dict(record["metrics"])
    units = {"p50_ms": "ms", "p99_ms": "ms", "fail_rate": "ratio"}
    for name, unit in units.items():
        if name in record["detail"]:
            metrics[name] = {"value": record["detail"][name], "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few ops per workload")
    args = ap.parse_args()
    if not 0 < args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    binary = build()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_one(binary, w, args) for w in names]
    for r in records:
        env = r["env"]
        print(f"# {r['workload']}: seed {env['seed']}, {env['ops']} ops, nproc {env['nproc']}, "
              f"{env['profile']}, {env['rustc']}, rev {env['git_rev']}")
        for name, m in unbounded(r).items():
            print(f"{r['workload']}/{name} = {m['value']:.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    if len(records) == 1:
        print(json.dumps({k: records[0][k] for k in keys}))
    else:
        metrics = {f"{r['workload']}/{n}": m for r in records for n, m in unbounded(r).items()}
        print(json.dumps({"correct": all(r["correct"] for r in records),
                          "attempted": sum(r["attempted"] for r in records),
                          "failed": sum(r["failed"] for r in records),
                          "metrics": metrics}))


if __name__ == "__main__":
    main()
