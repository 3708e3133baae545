#!/usr/bin/env python3
"""Benchmark of the flatscale Monte Carlo scan and the exact torus oracle.

One workload per call, as the benchmark contract in BENCHMARK.json fixes:

    python3 perfbench/run.py --workload torus-scan --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` pairs every untraced pass with a traced pass of the same seed
and prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload both ways in child processes;
``--quick`` shrinks every pass for the smoke test; ``--write-spec``
rewrites BENCHMARK.json from the tables below.

Run it from the repository root.  It imports flatscale from ``src/`` and
nowhere else, and writes its reports and spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
import flatscale  # noqa: E402

if Path(flatscale.__file__).resolve().parent.parent != SRC.resolve():
    raise SystemExit(f"flatscale imported from {flatscale.__file__}, not {SRC}")

import numpy as np  # noqa: E402

from workloads import WORKLOADS, PassResult  # noqa: E402
from layers import Tracer  # noqa: E402
from hostspeed import HostClock, PROBE_REFERENCE_S, probe_seconds  # noqa: E402

RUN_SECONDS = 30
MIN_PASSES = 3          # timed passes (or traced pairs) per run, at least
SETUP_REPS = 11

WORKLOAD_WHY = {
    "torus-scan": "21% of samples reach the cone and unfold to a small radius, "
                  "so surface builds dominate; checked against the exact oracle",
    "octagon-scan": "1.2% of samples reach the cone but each unfolds 6 triangles "
                    "to L=1 with k=2 prefix ranks; the batch mask sees every sample",
    "torus-oracle": "the deterministic reference route: per-point circle-polygon "
                    "areas, no scan code, so scan and oracle changes stay apart",
}

# name, unit, better, bound (share of the parent's median).  Times are
# scaled by the host factor (see hostspeed); they still get the largest
# bound, since the probe cancels most, not all, of the host's drift.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("cone_samples_per_s", "1/s", "higher", 0.25),
    ("time_to_fit_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("success_frac", "fraction", "higher", 0.02),
]

PER_LAYER = [
    ("surface.mask_s", "s", "lower"),
    ("surface.mask_polygons_per_s", "1/s", "higher"),
    ("charts.build_s", "s", "lower"),
    ("charts.build_calls", "count", "lower"),
    ("charts.build_us_per_call", "us", "lower"),
    ("charts.build_failures", "count", "lower"),
    ("charts.triangulation_types", "count", "lower"),
    ("charts.triangulation_repeat_frac", "fraction", "higher"),
    ("unfolding.enumerate_s", "s", "lower"),
    ("unfolding.calls", "count", "lower"),
    ("unfolding.connections", "count", "higher"),
    ("unfolding.connections_per_s", "1/s", "higher"),
    ("unfolding.connections_per_cone", "count", "higher"),
    ("unfolding.budget_overruns", "count", "lower"),
    ("homology.rank_s", "s", "lower"),
    ("homology.rank_calls", "count", "lower"),
    ("homology.rank_rows", "count", "lower"),
    ("sampling.admissible_frac", "fraction", "higher"),
    ("sampling.cone_frac", "fraction", "higher"),
    ("sampling.other_s", "s", "lower"),
    ("scaling_fit.fit_s", "s", "lower"),
    ("torus_oracle.cpa_calls", "count", "lower"),
    ("torus_oracle.cpa_s", "s", "lower"),
    ("torus_oracle.other_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def pass_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def summary(values) -> dict:
    vals = sorted(values)
    q1, q3 = (statistics.quantiles(vals, n=4)[::2] if len(vals) > 1
              else (vals[0], vals[0]))
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


# -- set-up -----------------------------------------------------------------------

SETUP_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
{code}print(time.perf_counter() - t0)
"""


def measure_setup(workload, reps: int) -> list[float]:
    """Import plus chart construction, each in a fresh interpreter.

    The times are scaled by one host factor for the whole set-up: the
    median of probes run between the interpreters.  A single probe next
    to a child of a fraction of a second is too short a look.
    """
    code = SETUP_TIMER.format(code=workload.setup_code)
    times, probes = [], [probe_seconds()]
    for _ in range(reps + 1):  # the first may compile bytecode: dropped
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True,
                              cwd=ROOT, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
        probes.append(probe_seconds())
    factor = statistics.median(probes) / PROBE_REFERENCE_S
    return [t / factor for t in times[1:]]


# -- per-layer numbers of one traced pass ------------------------------------------


def layer_metrics(workload, p: PassResult) -> dict[str, float]:
    """Per-layer numbers of one traced pass; times scaled like the pass."""
    tr = p.tracer
    cnt = tr.counts
    sec = Counter({name: s / p.host_factor for name, s in tr.seconds.items()})
    wall = (p.wall_s - tr.bookkeeping_s) / p.host_factor
    mask_s = sec["surface.mask"]
    build_s = sec["charts.build"]
    enum_s = sec["unfolding.enumerate"]
    rank_s = sec["homology.rank"]
    fit_s = sec["scaling_fit.fit"]
    cpa_s = sec["torus_oracle.cpa"]
    builds = cnt["charts.build.calls"]
    scan = workload.kind == "scan"
    return {
        "surface.mask_s": mask_s,
        "surface.mask_polygons_per_s":
            cnt["surface.mask_polygons"] / mask_s if mask_s else 0.0,
        "charts.build_s": build_s,
        "charts.build_calls": builds,
        "charts.build_us_per_call": 1e6 * build_s / builds if builds else 0.0,
        "charts.build_failures": cnt["charts.build_failures"],
        "charts.triangulation_types": len(tr.triangulations - {None}),
        "charts.triangulation_repeat_frac":
            cnt["charts.triangulation_repeats"] / builds if builds else 0.0,
        "unfolding.enumerate_s": enum_s,
        "unfolding.calls": cnt["unfolding.enumerate.calls"],
        "unfolding.connections": cnt["unfolding.connections"],
        "unfolding.connections_per_s":
            cnt["unfolding.connections"] / enum_s if enum_s else 0.0,
        "unfolding.connections_per_cone":
            cnt["unfolding.connections"] / p.cone if scan and p.cone else 0.0,
        "unfolding.budget_overruns": cnt["unfolding.budget_overruns"],
        "homology.rank_s": rank_s,
        "homology.rank_calls": cnt["homology.rank.calls"],
        "homology.rank_rows": cnt["homology.rank_rows"],
        "sampling.admissible_frac": p.admissible_frac,
        "sampling.cone_frac": p.cone / p.samples if scan else 0.0,
        "sampling.other_s":
            wall - (mask_s + build_s + enum_s + rank_s + fit_s) if scan else 0.0,
        "scaling_fit.fit_s": fit_s,
        "torus_oracle.cpa_calls": cnt["torus_oracle.cpa.calls"],
        "torus_oracle.cpa_s": cpa_s,
        "torus_oracle.other_s": 0.0 if scan else wall - cpa_s,
    }


# -- one workload -----------------------------------------------------------------


@dataclass
class Run:
    metrics: dict[str, float]           # the values the last line reports
    per_pass: dict[str, list[float]]    # the pass (or set-up) values behind them
    passes: list[PassResult]
    errors: list[str]
    attempted: int
    failed: int


def _warm_up(workload, seed, quick) -> PassResult | None:
    """An untimed scan pass with the seed of pass 0, to be compared with it."""
    return workload.run_pass(0, pass_seed(seed, 0), quick) if workload.warm_up else None


def _repeat_errors(warm: PassResult | None, first: PassResult) -> list[str]:
    if warm is None or warm.outputs == first.outputs:
        return []
    return ["two passes with the same seed gave different outputs"]


def _timed_passes(seed, seconds, quick, run_one) -> list:
    """Call ``run_one(i, seed_i, clock)`` until ``seconds`` have passed."""
    out = []
    least = 1 if quick else MIN_PASSES
    clock = HostClock()
    t0 = time.perf_counter()
    while len(out) < least or time.perf_counter() - t0 < seconds:
        out.append(run_one(len(out), pass_seed(seed, len(out)), clock))
    return out


def _scaled(clock: HostClock, p: PassResult) -> PassResult:
    p.host_factor = clock.factor(p.wall_s)
    return p


def run_untraced(workload, seed, seconds, quick) -> Run:
    setup = measure_setup(workload, 1 if quick else SETUP_REPS)
    warm = _warm_up(workload, seed, quick)
    passes = _timed_passes(
        seed, seconds, quick,
        lambda i, s, clock: _scaled(clock, workload.run_pass(i, s, quick)))
    errors = _repeat_errors(warm, passes[0]) + workload.check(passes)
    attempted, failed = workload.attempted(passes), workload.failed(passes)
    metrics = {"setup_s": statistics.median(setup), **workload.e2e(passes),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "success_frac": 1.0 - failed / attempted}
    per_pass = {"setup_s": setup, "pass_wall_s": [p.wall_s for p in passes],
                "pass_scaled_s": [p.scaled_s for p in passes],
                "host_factor": [p.host_factor for p in passes]}
    return Run(metrics, per_pass, passes, errors, attempted, failed)


def run_traced(workload, seed, seconds, quick) -> Run:
    def pair(i, s, clock):
        def plain():
            return _scaled(clock, workload.run_pass(i, s, quick))

        def traced():
            return _scaled(clock, workload.run_pass(i, s, quick, Tracer(i)))

        if i % 2 == 0:  # alternate which side runs first
            return plain(), traced()
        t = traced()
        return plain(), t

    warm = _warm_up(workload, seed, quick)
    pairs = _timed_passes(seed, seconds, quick, pair)
    passes = [t for _, t in pairs]
    errors = _repeat_errors(warm, pairs[0][0]) + workload.check(passes)
    errors += [f"pass {i}: traced outputs differ from the untraced pass"
               for i, (a, b) in enumerate(pairs) if a.outputs != b.outputs]
    per_pass = {}
    for plain, traced in pairs:
        values = layer_metrics(workload, traced)
        values["trace.overhead_ratio"] = (
            (traced.wall_s - traced.tracer.bookkeeping_s) / traced.host_factor
            / plain.scaled_s)
        for name, value in values.items():
            per_pass.setdefault(name, []).append(value)
    OUT.mkdir(exist_ok=True)
    passes[-1].tracer.write(OUT / f"spans-{workload.name}-seed{seed}.npz")
    metrics = {n: statistics.median(v) for n, v in per_pass.items()}
    return Run(metrics, per_pass, passes, errors,
               workload.attempted(passes), workload.failed(passes))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> int:
    workload = WORKLOADS[name]
    try:
        run = (run_traced if trace else run_untraced)(workload, seed, seconds, quick)
    except Exception:  # the run counts as all failed
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    failed = run.attempted if run.errors else run.failed

    for e in run.errors:
        print(f"CHECK FAILED: {e}")
    print(f"{name}  seed={seed}  trace={int(trace)}  passes={len(run.passes)}")
    stats = {n: summary(v) for n, v in run.per_pass.items()}
    for n in [*run.metrics, *(n for n in stats if n not in run.metrics)]:
        line = f"  {n:34s}"
        if n in run.metrics:
            line += f" {run.metrics[n]:14.6g} {UNITS[n]:9s}"
        if n in stats:
            s = stats[n]
            line += (f" per pass: median={s['median']:.6g} q1={s['q1']:.6g}"
                     f" q3={s['q3']:.6g} n={s['n']}")
        print(line)
    OUT.mkdir(exist_ok=True)
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "probe_reference_s": PROBE_REFERENCE_S,
              "errors": run.errors, "metrics": run.metrics, "per_pass": stats,
              "passes": [{"seed": p.seed, "wall_s": p.wall_s, "cone": p.cone,
                          "accepted": p.accepted, "values": p.values,
                          "host_factor": p.host_factor, "radius": p.radius,
                          "slopes": p.slopes}
                         for p in run.passes]}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not run.errors, "attempted": run.attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]}
                    for n, v in run.metrics.items()}}))
    return 1 if run.errors else 0


def run_all(seed: int, seconds: float, quick: bool) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--quick"] if quick else []),
                                  capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            result = json.loads(lines[-1]) if lines else {"correct": False}
            result["returncode"] = proc.returncode
            results[f"{name}/trace{trace}"] = result
    ok = all(r["correct"] and r["returncode"] == 0 for r in results.values())
    print(json.dumps({"correct": ok, "runs": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny passes and a single repetition (smoke test)")
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.quick)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.quick)


if __name__ == "__main__":
    sys.exit(main())
