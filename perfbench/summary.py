#!/usr/bin/env python3
"""Per-layer self time of traced runs, beside the untraced service time.

    python3 perfbench/run.py --workload compile --trace 1   # span file
    python3 perfbench/run.py --workload compile --trace 0   # untraced run
    python3 perfbench/summary.py [results-dir]

For each workload with a span file in the results directory (the newest if
several), prints each span name's self time -- its duration minus the part
its child spans cover -- summed and per call, sorted, with the untraced
run's median service time beside it. It also prints the direct map +
place + route + lower total against the service time of a served cold
compile of the same requests, and the gap.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path


def self_times(spans):
    """Span name -> [calls, total self microseconds]."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    table = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        table[name][0] += 1
        table[name][1] += (end - start) - covered
    return table


def newest(paths):
    return max(paths, key=lambda p: p.stat().st_mtime, default=None)


def main():
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "results"
    span_files = defaultdict(list)
    for p in results.glob("*.spans.json"):
        span_files[p.name.split("-seed")[0]].append(p)
    if not span_files:
        raise SystemExit(f"no span files in {results}; run a workload with --trace 1 first")
    for workload in sorted(span_files):
        doc = json.loads(newest(span_files[workload]).read_text())
        table = self_times(doc["spans"])
        total = sum(us for _, us in table.values()) or 1.0
        print(f"== {workload} (seed {doc['seed']}, {len(doc['spans'])} spans)")
        untraced = newest(results.glob(f"{workload}-seed*-trace0.json"))
        if untraced:
            service = json.loads(untraced.read_text())["detail"]["service_ms"]
            print(f"   untraced service_ms (p50): {service:.4f} ms")
        print(f"   {'layer':<26}{'calls':>8}{'self ms':>12}{'ms/call':>12}{'share':>8}")
        for name, (calls, us) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            print(f"   {name:<26}{calls:>8}{us / 1e3:>12.2f}{us / 1e3 / calls:>12.4f}"
                  f"{100 * us / total:>7.1f}%")
        traced = newest(results.glob(f"{workload}-seed*-trace1.json"))
        if traced:
            m = json.loads(traced.read_text())["metrics"]
            direct, gap = m["layers.direct_ms"]["value"], m["layers.gap_ms"]["value"]
            print(f"   direct map+place+route+lower {direct:.3f} ms vs served cold compile "
                  f"of the same request {direct + gap:.3f} ms: gap {gap:+.3f} ms")


if __name__ == "__main__":
    main()
