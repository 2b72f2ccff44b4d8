#!/usr/bin/env python3
"""Compare a fresh BENCH_flow.json against the committed BENCH_baseline.json.

The flow is fully seeded, so the *quality* numbers (area ratios, measured
change rate, counter-derived statistics) must reproduce near-exactly; only
floating-point noise across platforms is tolerated. Wall-clock numbers vary
with the runner, so phase timings only fail on order-of-magnitude blowups,
and sub-millisecond phases are skipped entirely (they are all noise).

When the baseline carries a "sim" section, a fresh BENCH_sim.json is also
gated: throughputs may not fall an order of magnitude below baseline, the
batched-over-scalar speedup has a hard floor (the bit-parallel kernel must
actually pay for itself), and the seeded fault campaign's detection counts
must reproduce exactly. When that section also carries the wide-word
matrix keys, the streaming-runner cells are gated too: every
(optimizer, width, threads) cell in the baseline must be present, every
cell must have verified bit-identical against the width-1 unoptimized
reference (0 divergences), the best cell must beat the same run's
step-batch throughput by the SIM_MATRIX_FLOOR factor, and the kernel
optimizer's per-context instruction counts — deterministic functions of
the seeded compile — must reproduce exactly.

When the baseline carries a "serve" section, a fresh BENCH_serve.json is
gated too: the repeat-submission phase must hit cache on 100% of jobs,
concurrent sessions must show zero divergences from their private replays,
4-worker throughput may not collapse below baseline, and — only on runners
with at least 4 cores — 1→4 worker scaling has a hard floor.

When the baseline carries a "serve_obs" section, a fresh BENCH_serve_obs.json
is held to the serving-observability SLOs: the aggressor-isolation ratio
(victim p99 alone over victim p99 next to an open-loop aggressor) may not
fall below the baseline floor, at least `min_shed` admission sheds must have
fired (otherwise the experiment no longer exercises overload), every shed
must be attributed — tenant ledgers and the trace ring agreeing exactly —
and every tenant ledger must conserve
(submitted == completed+failed+expired+rejected+shed+inflight).

When the baseline carries a "delta" section, a fresh BENCH_delta.json is
gated on the delta-compilation contract: zero bit divergences between
delta-compiled and cold-compiled artifacts (the non-negotiable invariant),
every change-rate variant served through the near-match path, and a hard
speedup floor at the paper's 5% change point — if recompiling a 5%-changed
context stops being at least `speedup_floor_5pct`x cheaper than a cold
compile, the delta path stopped paying for itself.

When the baseline carries a "probe" section, a fresh BENCH_probe.json is
gated on the observability contract: zero divergences between armed probe
captures and per-lane scalar replays (probing must never change what the
kernel computes), the disabled-probe throughput may not fall below the
baseline floor fraction of the never-probed twin device timed in the same
run with interleaved trials (disarmed probes must stay effectively free),
and the seeded activity census must reproduce its per-context LUT ranking
exactly.

When the baseline carries a "shard" section, a fresh BENCH_shard.json is
gated on the scale-out serving contract: the kill must have actually cost
sessions (otherwise the experiment proves nothing), every session on the
killed shard must be recovered with zero lost, the failure-injected run
must match the unkilled reference word-for-word (zero divergences), the
conservation flag must hold, and migration p99 latency may only blow up by
the usual timing factor over baseline.

Usage: check_bench_regression.py [fresh] [baseline] [fresh_sim] [fresh_serve]
       [fresh_serve_obs] [fresh_delta] [fresh_probe] [fresh_shard]
Exits non-zero listing every regression found.
"""

import json
import sys

# Deterministic quality metrics: relative tolerance for float noise only.
RATIO_REL_TOL = 0.02
# Timings: fail only when a phase gets this many times slower...
TIME_BLOWUP = 20.0
# ...and the baseline phase was big enough to be signal, not noise.
TIME_FLOOR_US = 1_000
# The 64-lane kernel must beat the scalar interpreter by at least this much
# on any runner; anything lower means the batched path stopped paying off.
SIM_SPEEDUP_FLOOR = 8.0
# The best wide-word streaming cell must beat the same run's step-batch
# throughput by at least this factor — the wide-word + optimizer tentpole.
# Same-run ratio, so runner speed cancels out.
SIM_MATRIX_FLOOR = 3.0
# 1->4 worker throughput scaling floor for the serving layer, enforced only
# on runners whose available_parallelism is at least this many cores (a
# 1-core container cannot scale no matter how good the code is).
SERVE_SCALING_FLOOR = 2.0
SERVE_SCALING_MIN_CORES = 4


def main() -> int:
    fresh_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_flow.json"
    base_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_baseline.json"
    fresh = json.load(open(fresh_path))
    base = json.load(open(base_path))
    errors = []

    def check_ratio(label, got, want):
        if want == 0:
            ok = abs(got) < 1e-9
        else:
            ok = abs(got - want) <= RATIO_REL_TOL * abs(want)
        if not ok:
            errors.append(f"{label}: {got:.6f} vs baseline {want:.6f} "
                          f"(> {RATIO_REL_TOL:.0%} relative)")

    for key in ["cmos_ratio", "fepg_ratio", "headline_cmos_ratio",
                "headline_fepg_ratio", "change_rate"]:
        check_ratio(key, fresh[key], base[key])

    base_points = {p["label"]: p for p in base["area_points"]}
    for p in fresh["area_points"]:
        b = base_points.get(p["label"])
        if b is None:
            errors.append(f"area point {p['label']!r} missing from baseline")
            continue
        for key in ["cmos_ratio", "fepg_ratio", "change_rate"]:
            check_ratio(f"area_points[{p['label']}].{key}", p[key], b[key])
    for label in base_points:
        if label not in {p["label"] for p in fresh["area_points"]}:
            errors.append(f"area point {label!r} disappeared")

    base_phases = {p["phase"]: p["total_us"] for p in base["phase_totals_us"]}
    for p in fresh["phase_totals_us"]:
        want = base_phases.get(p["phase"])
        if want is None:
            errors.append(f"phase {p['phase']!r} missing from baseline")
        elif want >= TIME_FLOOR_US and p["total_us"] > TIME_BLOWUP * want:
            errors.append(f"phase {p['phase']}: {p['total_us']} us vs "
                          f"baseline {want} us (> {TIME_BLOWUP:.0f}x)")
    for phase in base_phases:
        if phase not in {p["phase"] for p in fresh["phase_totals_us"]}:
            errors.append(f"phase {phase!r} disappeared")

    for key in ["compile_serial_us", "compile_parallel_us"]:
        want = base[key]
        if want >= TIME_FLOOR_US and fresh[key] > TIME_BLOWUP * want:
            errors.append(f"{key}: {fresh[key]} us vs baseline {want} us "
                          f"(> {TIME_BLOWUP:.0f}x)")

    if fresh["parallelism"] < 1:
        errors.append(f"parallelism {fresh['parallelism']} < 1")

    sim_checked = False
    sim = None
    if "sim" in base:
        sim_path = sys.argv[3] if len(sys.argv) > 3 else "BENCH_sim.json"
        try:
            sim = json.load(open(sim_path))
        except OSError:
            errors.append(f"baseline has a sim section but {sim_path} is missing")
            sim = None
        if sim is not None:
            sim_checked = True
            sim_base = base["sim"]
            if sim["speedup"] < SIM_SPEEDUP_FLOOR:
                errors.append(
                    f"sim.speedup: batched is only {sim['speedup']:.1f}x scalar "
                    f"(floor {SIM_SPEEDUP_FLOOR:.0f}x)")
            for key in ["scalar_vectors_per_sec", "batched_vectors_per_sec"]:
                want = sim_base[key]
                if sim[key] < want / TIME_BLOWUP:
                    errors.append(
                        f"sim.{key}: {sim[key]:.0f}/s vs baseline {want:.0f}/s "
                        f"(> {TIME_BLOWUP:.0f}x slower)")
            want_ms = sim_base["fault_campaign_ms"]
            if want_ms >= 1.0 and sim["fault_campaign_ms"] > TIME_BLOWUP * want_ms:
                errors.append(
                    f"sim.fault_campaign_ms: {sim['fault_campaign_ms']:.1f} ms vs "
                    f"baseline {want_ms:.1f} ms (> {TIME_BLOWUP:.0f}x)")
            # The campaign is fully seeded and evaluated in integer bit
            # arithmetic: its detection counts must reproduce exactly.
            for key in ["fault_injected", "fault_detected"]:
                if sim[key] != sim_base[key]:
                    errors.append(
                        f"sim.{key}: {sim[key]} vs baseline {sim_base[key]} "
                        f"(seeded campaign must be deterministic)")
            if "matrix_best_vectors_per_sec" in sim_base:
                best = sim.get("matrix_best_vectors_per_sec", 0.0)
                want = sim_base["matrix_best_vectors_per_sec"]
                if best < want / TIME_BLOWUP:
                    errors.append(
                        f"sim.matrix_best_vectors_per_sec: {best:.0f}/s vs "
                        f"baseline {want:.0f}/s (> {TIME_BLOWUP:.0f}x slower)")
                if best < SIM_MATRIX_FLOOR * sim["batched_vectors_per_sec"]:
                    errors.append(
                        f"sim.matrix_best_vectors_per_sec: {best:.0f}/s is "
                        f"under {SIM_MATRIX_FLOOR:.0f}x the same run's "
                        f"step-batch {sim['batched_vectors_per_sec']:.0f}/s "
                        f"(wide-word + optimizer path stopped paying off)")
                if sim.get("reference_divergences", -1) != 0:
                    errors.append(
                        f"sim.reference_divergences: "
                        f"{sim.get('reference_divergences')} (must be 0: the "
                        f"width-1 reference must match the scalar path)")
                cells = {(c["optimize"], c["width"], c["threads"]): c
                         for c in sim.get("matrix", [])}
                for b in sim_base["matrix"]:
                    key = (b["optimize"], b["width"], b["threads"])
                    got = cells.get(key)
                    if got is None:
                        errors.append(
                            f"sim.matrix cell optimize={key[0]} width={key[1]} "
                            f"threads={key[2]} disappeared")
                    elif got["divergences"] != 0:
                        errors.append(
                            f"sim.matrix cell optimize={key[0]} width={key[1]} "
                            f"threads={key[2]}: {got['divergences']} divergences "
                            f"(every cell must be bit-identical to the "
                            f"reference)")
                # The optimizer's per-context effect is a deterministic
                # function of the seeded compile: exact counts, and never an
                # instruction- or word-op-count increase.
                want_opt = {o["context"]: o for o in sim_base["optimizer"]}
                got_opt = {o["context"]: o for o in sim.get("optimizer", [])}
                if set(want_opt) != set(got_opt):
                    errors.append(
                        f"sim.optimizer contexts {sorted(got_opt)} vs baseline "
                        f"{sorted(want_opt)}")
                for c, b in want_opt.items():
                    o = got_opt.get(c)
                    if o is None:
                        continue
                    for key in ["instrs_before", "instrs_after",
                                "word_ops_before", "word_ops_after",
                                "folded_operands", "deduped", "dead",
                                "specialized"]:
                        if o[key] != b[key]:
                            errors.append(
                                f"sim.optimizer[ctx {c}].{key}: {o[key]} vs "
                                f"baseline {b[key]} (seeded optimizer must be "
                                f"deterministic)")
                    if o["instrs_after"] > o["instrs_before"]:
                        errors.append(
                            f"sim.optimizer[ctx {c}]: instruction count grew "
                            f"{o['instrs_before']} -> {o['instrs_after']}")
                    if o["word_ops_after"] > o["word_ops_before"]:
                        errors.append(
                            f"sim.optimizer[ctx {c}]: word-op count grew "
                            f"{o['word_ops_before']} -> {o['word_ops_after']}")

    serve_checked = False
    if "serve" in base:
        serve_path = sys.argv[4] if len(sys.argv) > 4 else "BENCH_serve.json"
        try:
            serve = json.load(open(serve_path))
        except OSError:
            errors.append(f"baseline has a serve section but {serve_path} is missing")
            serve = None
        if serve is not None:
            serve_checked = True
            serve_base = base["serve"]
            # The repeat phase resubmits byte-identical content: anything
            # short of a 100% hit rate means the content address broke.
            if serve["repeat_cache_hit_rate"] != 1.0:
                errors.append(
                    f"serve.repeat_cache_hit_rate: "
                    f"{serve['repeat_cache_hit_rate']:.3f} (must be exactly 1.0)")
            # Sessions are verified word-for-word against private replays.
            if serve["cross_session_divergences"] != 0:
                errors.append(
                    f"serve.cross_session_divergences: "
                    f"{serve['cross_session_divergences']} (must be 0)")
            want = serve_base["throughput_jobs_per_sec_4w"]
            if serve["throughput_jobs_per_sec_4w"] < want / TIME_BLOWUP:
                errors.append(
                    f"serve.throughput_jobs_per_sec_4w: "
                    f"{serve['throughput_jobs_per_sec_4w']:.2f}/s vs baseline "
                    f"{want:.2f}/s (> {TIME_BLOWUP:.0f}x slower)")
            if serve["available_parallelism"] >= SERVE_SCALING_MIN_CORES:
                if serve["scaling_1_to_4"] < SERVE_SCALING_FLOOR:
                    errors.append(
                        f"serve.scaling_1_to_4: {serve['scaling_1_to_4']:.2f}x "
                        f"on a {serve['available_parallelism']}-core runner "
                        f"(floor {SERVE_SCALING_FLOOR:.0f}x)")

    obs_checked = False
    if "serve_obs" in base:
        obs_path = sys.argv[5] if len(sys.argv) > 5 else "BENCH_serve_obs.json"
        try:
            obs = json.load(open(obs_path))
        except OSError:
            errors.append(
                f"baseline has a serve_obs section but {obs_path} is missing")
            obs = None
        if obs is not None:
            obs_checked = True
            obs_base = base["serve_obs"]
            # SLO: an open-loop aggressor may not drag victim tail latency
            # below the isolation floor (1.0 = perfect isolation).
            floor = obs_base["isolation_floor"]
            if obs["aggressor_isolation_ratio"] < floor:
                errors.append(
                    f"serve_obs.aggressor_isolation_ratio: "
                    f"{obs['aggressor_isolation_ratio']:.3f} < floor {floor}")
            # SLO: the overload experiment must actually overload; a run
            # with no sheds proves nothing about admission control.
            if obs["shed_total"] < obs_base["min_shed"]:
                errors.append(
                    f"serve_obs.shed_total: {obs['shed_total']} < "
                    f"min_shed {obs_base['min_shed']}")
            # SLO: zero unattributed sheds — per-tenant ledgers and the
            # trace ring must agree shed-for-shed.
            if obs["unattributed_sheds"] != 0:
                errors.append(
                    f"serve_obs.unattributed_sheds: "
                    f"{obs['unattributed_sheds']} (must be 0)")
            typed = (obs["shed_queue_watermark"] + obs["shed_tenant_inflight"]
                     + obs["shed_policy"])
            if typed != obs["shed_total"]:
                errors.append(
                    f"serve_obs: typed shed counts sum to {typed}, "
                    f"total is {obs['shed_total']}")
            # SLO: exact conservation on every tenant ledger.
            if not obs["all_conserved"]:
                errors.append("serve_obs.all_conserved is false: a tenant "
                              "ledger lost or double-counted an attempt")
            if obs["trace_dropped"] != 0:
                errors.append(
                    f"serve_obs.trace_dropped: {obs['trace_dropped']} "
                    f"(ring must hold the whole experiment)")

    delta_checked = False
    if "delta" in base:
        delta_path = sys.argv[6] if len(sys.argv) > 6 else "BENCH_delta.json"
        try:
            delta = json.load(open(delta_path))
        except OSError:
            errors.append(
                f"baseline has a delta section but {delta_path} is missing")
            delta = None
        if delta is not None:
            delta_checked = True
            delta_base = base["delta"]
            # The non-negotiable invariant: a delta-compiled design is
            # bit-for-bit the cold compile of the same request.
            if delta["divergences"] != delta_base["max_divergences"]:
                errors.append(
                    f"delta.divergences: {delta['divergences']} "
                    f"(must be {delta_base['max_divergences']}: delta compile "
                    f"must be bit-identical to cold)")
            # Every perturbed variant must have been answered through the
            # near-match delta path, not a silent cold compile.
            if delta["serve_near_hits"] != len(delta["points"]):
                errors.append(
                    f"delta.serve_near_hits: {delta['serve_near_hits']} of "
                    f"{len(delta['points'])} variants took the delta path")
            floor = delta_base["speedup_floor_5pct"]
            if delta["speedup_at_5pct"] < floor:
                errors.append(
                    f"delta.speedup_at_5pct: {delta['speedup_at_5pct']:.1f}x "
                    f"< floor {floor}x (delta recompile stopped paying off)")
            # A reused context count of zero at low change rates means the
            # per-context fingerprints stopped matching — the cache would
            # silently degrade to cold compiles.
            for p in delta["points"]:
                if p["contexts_reused"] < p["contexts_total"] - 1:
                    errors.append(
                        f"delta.points[{p['label']}]: only "
                        f"{p['contexts_reused']}/{p['contexts_total']} contexts "
                        f"reused for a single-context perturbation")

    probe_checked = False
    if "probe" in base:
        probe_path = sys.argv[7] if len(sys.argv) > 7 else "BENCH_probe.json"
        try:
            probe = json.load(open(probe_path))
        except OSError:
            errors.append(
                f"baseline has a probe section but {probe_path} is missing")
            probe = None
        if probe is not None:
            probe_checked = True
            probe_base = base["probe"]
            # The non-negotiable invariant: armed probes record exactly what
            # the 64-lane kernel computed, checked word-for-word against
            # scalar replays of every lane.
            if probe["probe_divergences"] != probe_base["max_divergences"]:
                errors.append(
                    f"probe.probe_divergences: {probe['probe_divergences']} "
                    f"(must be {probe_base['max_divergences']}: probe captures "
                    f"must match the scalar replay bit-for-bit)")
            # Disarmed probes must stay effectively free: the disabled-path
            # throughput is held against a never-probed twin device whose
            # trials the same process interleaved with the disabled path's.
            floor = probe_base["disabled_overhead_floor"]
            plain = probe["plain_batched_vectors_per_sec"]
            got = probe["probe_disabled_vectors_per_sec"]
            if got < floor * plain:
                errors.append(
                    f"probe.probe_disabled_vectors_per_sec: {got:.0f}/s "
                    f"< {floor:.0%} of the same run's never-probed twin "
                    f"{plain:.0f}/s (disabled probes are no longer free)")
            # The census run is fully seeded and counts toggles in integer
            # bit arithmetic: the activity ranking must reproduce exactly.
            want_ranks = {r["context"]: r["top_luts"]
                          for r in probe_base["activity_top"]}
            got_ranks = {r["context"]: r["top_luts"]
                         for r in probe["activity_top"]}
            if got_ranks != want_ranks:
                errors.append(
                    f"probe.activity_top: {got_ranks} vs baseline "
                    f"{want_ranks} (seeded census must be deterministic)")

    shard_checked = False
    if "shard" in base:
        shard_path = sys.argv[8] if len(sys.argv) > 8 else "BENCH_shard.json"
        try:
            shard = json.load(open(shard_path))
        except OSError:
            errors.append(
                f"baseline has a shard section but {shard_path} is missing")
            shard = None
        if shard is not None:
            shard_checked = True
            shard_base = base["shard"]
            # The kill must have hit live sessions; a kill that lost nothing
            # exercises neither the store nor the restore path.
            if shard["sessions_on_killed"] < 1:
                errors.append(
                    f"shard.sessions_on_killed: {shard['sessions_on_killed']} "
                    f"(the killed shard held no sessions — no recovery was "
                    f"exercised)")
            # The non-negotiable invariants: every session on the killed
            # shard comes back, and the failure-injected run's output is
            # word-for-word the unkilled reference's.
            if shard["sessions_lost"] != 0:
                errors.append(
                    f"shard.sessions_lost: {shard['sessions_lost']} "
                    f"(must be 0: every checkpointed session must survive "
                    f"a shard kill)")
            if shard["sessions_recovered"] != shard["sessions_on_killed"]:
                errors.append(
                    f"shard.sessions_recovered: {shard['sessions_recovered']} "
                    f"of {shard['sessions_on_killed']} killed-shard sessions")
            if shard["divergences"] != 0:
                errors.append(
                    f"shard.divergences: {shard['divergences']} (must be 0: "
                    f"migration and recovery must be bit-invisible vs the "
                    f"unkilled reference)")
            if not shard["conserved"]:
                errors.append("shard.conserved is false: sessions were lost "
                              "or duplicated across the kill")
            want = shard_base["migrate_p99_us"]
            if want >= TIME_FLOOR_US and shard["migrate_p99_us"] > TIME_BLOWUP * want:
                errors.append(
                    f"shard.migrate_p99_us: {shard['migrate_p99_us']} us vs "
                    f"baseline {want} us (> {TIME_BLOWUP:.0f}x)")

    if errors:
        print(f"BENCH regression vs {base_path}:")
        for e in errors:
            print(f"  - {e}")
        return 1
    print(f"BENCH_flow.json within tolerance of {base_path} "
          f"({len(base_points)} area points, {len(base_phases)} phases"
          + (", sim gate OK" if sim_checked else "")
          + (", serve gate OK" if serve_checked else "")
          + (", serve_obs SLOs OK" if obs_checked else "")
          + (", delta gate OK" if delta_checked else "")
          + (", probe gate OK" if probe_checked else "")
          + (", shard gate OK" if shard_checked else "") + ").")
    return 0


if __name__ == "__main__":
    sys.exit(main())
