"""The benchmark's workloads: one timed pass of each, its metrics and checks.

A pass is the unit the benchmark repeats and times.  Its inputs come only
from the pass seed; the program sees a chart name, radius cells, a sample
count and that seed.

End-to-end values are run totals (work done over time spent), not medians
of passes, and each pass time is scaled by the host factor around it (see
hostspeed): slow phases of a shared host last seconds to minutes.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from flatscale.charts import get_chart
from flatscale.sampling import scan_chart
from flatscale.scaling_fit import fit_scaling_exponent
from flatscale.torus_oracle import DEFAULT_PQ_MAX, primitive_pairs, torus_exact_oracle

from layers import Tracer, counting_build_failures, traced

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
MAX_REL_STDERR = 0.20  # fit_scaling_exponent's strict precondition
CHECK_SIGMAS = 5.0
ORACLE_REL_TOL = 1e-9


@dataclass
class PassResult:
    seed: int
    wall_s: float
    samples: int      # scan samples; primitive-pair integrals for the oracle
    cone: int         # admissible samples with area <= 1; values for the oracle
    accepted: tuple[int, ...] = ()
    values: tuple[float, ...] = ()
    radius: float | None = None
    admissible_frac: float = 0.0
    slopes: tuple[float, ...] = ()
    build_failures: int = 0
    tracer: Tracer | None = None
    host_factor: float = 1.0  # see hostspeed: the host's slowness around the pass

    @property
    def outputs(self):
        return self.accepted, self.values

    @property
    def scaled_s(self) -> float:
        return self.wall_s / self.host_factor


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _binomial_gap(k: int, n: int, p: float, var_p: float = 0.0) -> float:
    """|k - n p| in standard deviations, after one count of slack."""
    sd = n * math.sqrt(p * (1.0 - p) / n + var_p)
    return max(abs(k - n * p) - 1.0, 0.0) / sd if sd > 0 else math.inf


@dataclass
class ScanWorkload:
    """``scan_chart`` over fixed radius cells, then the log-log fits."""

    name: str
    chart: str
    cells: list[tuple[float, ...]]
    fit_groups: list[list[int]]   # cell indices fitted together
    samples: int                  # per pass
    quick_samples: int = 2000
    kind = "scan"
    warm_up = True

    @property
    def setup_code(self) -> str:
        return ("from flatscale.charts import get_chart\n"
                "from flatscale.sampling import scan_chart\n"
                "from flatscale.scaling_fit import fit_scaling_exponent\n"
                f"get_chart({self.chart!r})\n")

    def run_pass(self, index: int, seed: int, quick: bool,
                 tracer: Tracer | None = None) -> PassResult:
        n = self.quick_samples if quick else self.samples
        failures = Counter()
        hooks = counting_build_failures(failures) if tracer is None else traced(tracer)
        with hooks:
            t0 = time.perf_counter()
            with _span(tracer, "bench.pass"):
                res = scan_chart(self.chart, None, [None, *self.cells], n, seed,
                                 threads=1)
                slopes = self._fit(res.estimates[1:], tracer)
            wall = time.perf_counter() - t0
        if tracer is not None:
            failures = tracer.counts
        return PassResult(
            seed=seed, wall_s=wall, samples=n, cone=res.estimates[0].accepted,
            accepted=tuple(e.accepted for e in res.estimates[1:]),
            admissible_frac=res.admissible_fraction, slopes=slopes,
            build_failures=failures["charts.build_failures"], tracer=tracer)

    def _fit(self, estimates, tracer) -> tuple[float, ...]:
        slopes = []
        for group in self.fit_groups:
            rows = [(estimates[i].eps, estimates[i].value,
                     estimates[i].standard_error)
                    for i in group if estimates[i].accepted > 0]
            if rows:  # a tiny pass can miss every cell of a group
                fit = _call(tracer, "scaling_fit.fit", fit_scaling_exponent,
                            rows, strict=False)
                slopes.extend(fit.slopes)
        return tuple(slopes)

    def reference_p(self) -> list[float]:
        raise NotImplementedError

    def samples_to_fit(self) -> float:
        """Plain-MC samples until every fitted cell has rel. stderr < 0.20.

        Uses the stored reference probabilities, not this run's hits: the
        hit count of the rarest cell would add seed noise of about
        1/sqrt(hits) to the projection.
        """
        return max((1.0 - p) / (p * MAX_REL_STDERR ** 2)
                   for p in self.reference_p())

    def e2e(self, passes: list[PassResult]) -> dict[str, float]:
        t = sum(p.scaled_s for p in passes)
        n = sum(p.samples for p in passes)
        return {
            "wall_s": t / len(passes),
            "samples_per_s": n / t,
            "cone_samples_per_s": sum(p.cone for p in passes) / t,
            "time_to_fit_s": t / n * self.samples_to_fit(),
        }

    def attempted(self, passes: list[PassResult]) -> int:
        return sum(p.cone for p in passes)

    def failed(self, passes: list[PassResult]) -> int:
        return sum(p.build_failures for p in passes)

    def check(self, passes: list[PassResult]) -> list[str]:
        errors = []
        for p in passes:
            if any(k > p.cone for k in p.accepted):
                errors.append(f"seed {p.seed}: a cell accepted more than the "
                              f"{p.cone} cone samples")
            if not all(math.isfinite(s) for s in p.slopes):
                errors.append(f"seed {p.seed}: non-finite fitted slope {p.slopes}")
        return errors


class TorusScan(ScanWorkload):
    def reference_p(self) -> list[float]:
        oracle = REFERENCE["torus_exact_oracle"]
        volume = get_chart(self.chart).box_volume
        return [oracle[repr(c[0])] / volume for c in self.cells]

    def check(self, passes):
        errors = super().check(passes)
        n = sum(p.samples for p in passes)
        for i, (cell, p_ref) in enumerate(zip(self.cells, self.reference_p())):
            k = sum(p.accepted[i] for p in passes)
            gap = _binomial_gap(k, n, p_ref)
            if gap > CHECK_SIGMAS:
                errors.append(f"torus cell {cell}: {k} hits in {n} samples is "
                              f"{gap:.1f} sd from the exact oracle")
        return errors


class OctagonScan(ScanWorkload):
    def reference_p(self) -> list[float]:
        ref = REFERENCE["octagon_scan"]
        return [ref["accepted"][repr(c)] / ref["samples"] for c in self.cells]

    def check(self, passes):
        errors = super().check(passes)
        for p in passes:
            got = dict(zip(self.cells, p.accepted))
            for c, k in got.items():
                for c2, k2 in got.items():  # monotone in every radius
                    if (len(c2) == len(c) and k2 < k
                            and all(a <= b for a, b in zip(c, c2))):
                        errors.append(f"seed {p.seed}: count {k2} at {c2} "
                                      f"< {k} at {c}")
                if len(c) == 2 and k > got[c[:1]]:
                    errors.append(f"seed {p.seed}: k=2 count {k} at {c} exceeds "
                                  f"the k=1 count {got[c[:1]]}")
        ref_n = REFERENCE["octagon_scan"]["samples"]
        n = sum(p.samples for p in passes)
        for i, (cell, p_ref) in enumerate(zip(self.cells, self.reference_p())):
            k = sum(p.accepted[i] for p in passes)
            gap = _binomial_gap(k, n, p_ref, p_ref * (1.0 - p_ref) / ref_n)
            if gap > CHECK_SIGMAS:
                errors.append(f"octagon cell {cell}: {k} hits in {n} samples is "
                              f"{gap:.1f} sd from the reference scan")
        return errors


@dataclass
class OracleWorkload:
    """``torus_exact_oracle``, one radius per pass in turn: no scan code runs.

    The oracle is deterministic; the seed only labels the pass.
    """

    name: str
    radii: tuple[float, ...]
    quick_radii: tuple[float, ...]
    kind = "oracle"
    warm_up = False  # no lazy state on this path; outputs match stored values
    setup_code = "from flatscale.torus_oracle import torus_exact_oracle\n"

    def run_pass(self, index: int, seed: int, quick: bool,
                 tracer: Tracer | None = None) -> PassResult:
        radii = self.quick_radii if quick else self.radii
        eps = radii[index % len(radii)]
        with nullcontext() if tracer is None else traced(tracer):
            t0 = time.perf_counter()
            with _span(tracer, "bench.pass"):
                value = _call(tracer, "torus_oracle.torus_exact_oracle",
                              torus_exact_oracle, [eps])
            wall = time.perf_counter() - t0
        return PassResult(seed=seed, wall_s=wall,
                          samples=len(primitive_pairs(DEFAULT_PQ_MAX)), cone=1,
                          values=(value,), radius=eps, tracer=tracer)

    def e2e(self, passes: list[PassResult]) -> dict[str, float]:
        # wall_s: mean time for one value at every radius of the run
        by_radius = {}
        for p in passes:
            by_radius.setdefault(p.radius, []).append(p)
        wall = sum(sum(p.scaled_s for p in ps) / len(ps) for ps in by_radius.values())
        return {
            "wall_s": wall,
            "samples_per_s": sum(ps[0].samples for ps in by_radius.values()) / wall,
            "cone_samples_per_s": len(by_radius) / wall,
            # exact values have no standard error: ready for a fit at once
            "time_to_fit_s": wall,
        }

    def attempted(self, passes: list[PassResult]) -> int:
        return len(passes)

    def failed(self, passes: list[PassResult]) -> int:
        return len(self.check(passes))

    def check(self, passes: list[PassResult]) -> list[str]:
        errors = []
        for p in passes:
            ref = REFERENCE["torus_exact_oracle"][repr(p.radius)]
            if not abs(p.values[0] - ref) <= ORACLE_REL_TOL * abs(ref):
                errors.append(f"oracle at eps={p.radius}: {p.values[0]!r} "
                              f"differs from the stored {ref!r}")
        return errors


OCTAGON_EPS = (0.2, 0.35, 0.6, 1.0)
_OCTAGON_K1 = [(e,) for e in OCTAGON_EPS]
_OCTAGON_K2 = [(a, b) for i, a in enumerate(OCTAGON_EPS) for b in OCTAGON_EPS[i:]]

WORKLOADS = {
    w.name: w for w in (
        TorusScan(
            name="torus-scan", chart="torus",
            cells=[(0.15,), (0.2,), (0.3,), (0.45,)],
            fit_groups=[[0, 1, 2, 3]], samples=10_000),
        OctagonScan(
            name="octagon-scan", chart="h2-octagon",
            cells=_OCTAGON_K1 + _OCTAGON_K2,
            fit_groups=[list(range(4)), list(range(4, 4 + len(_OCTAGON_K2)))],
            samples=30_000),
        OracleWorkload(name="torus-oracle", radii=(0.15, 0.3), quick_radii=(0.3,)),
    )
}
