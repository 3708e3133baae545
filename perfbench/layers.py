"""Per-layer spans and counts, recorded from outside the program.

``traced(tracer)`` rebinds the module attributes that
``sampling.scan_chart`` and ``torus_oracle.torus_exact_oracle`` look up at
call time, so every call into a layer records one span (name, start, end,
parent span, pass id) plus the counts that make its rates.  ``sampling``
imported its callees by name, so the wrappers go on ``sampling``'s own
bindings; ``ChartModel.build`` is a method and is wrapped on the class.

Work the benchmark does only to describe the input (the ear-clip
triangulation of each build) runs outside the spans and is timed as
bookkeeping, which the reports subtract from the traced pass.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from flatscale import sampling, torus_oracle
from flatscale.charts import ChartModel
from flatscale.surface import SurfaceError, ear_clip
from flatscale.unfolding import UnfoldingBudgetError


class Tracer:
    """Spans and counts of one pass, kept in memory until written out."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self.triangulations: set = set()

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_idx.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, failed: bool) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.end[sid] = t1
        self.failed[sid] = failed
        self.seconds[self.names[self.name_idx[sid]]] += t1 - self.start[sid]

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(sid, failed)

    def call(self, name: str, fn, *args, **kwargs):
        # Inlines span(): it wraps every circle_polygon_area call, where a
        # generator-based context manager would add its own cost to each call.
        self.counts[name + ".calls"] += 1
        sid = self._open(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self._close(sid, failed)

    @contextmanager
    def bookkeeping(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.bookkeeping_s += time.perf_counter() - t0

    def write(self, path) -> None:
        """Write every span of this pass as compressed columns."""
        np.savez_compressed(
            path, names=np.asarray(self.names), pass_id=self.pass_id,
            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8))


def _triangulation_key(chart: ChartModel, z):
    try:
        return tuple(ear_clip(chart.polygon_vertices(z)))
    except SurfaceError:
        return None


@contextmanager
def _rebound(bindings):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in bindings]
    try:
        for obj, attr, value in bindings:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


@contextmanager
def traced(tracer: Tracer):
    """Install span-recording wrappers on every layer for the duration."""
    mask = sampling.polygon_simple_mask
    build = ChartModel.build
    enumerate_scs = sampling.enumerate_saddle_connections
    rank = sampling.independence_rank
    cpa = torus_oracle.circle_polygon_area
    counts = tracer.counts

    def mask_wrapper(verts, *args, **kwargs):
        out = tracer.call("surface.mask", mask, verts, *args, **kwargs)
        counts["surface.mask_polygons"] += len(verts)
        return out

    def build_wrapper(self, z):
        try:
            return tracer.call("charts.build", build, self, z)
        except SurfaceError:
            counts["charts.build_failures"] += 1
            raise
        finally:
            with tracer.bookkeeping():
                key = _triangulation_key(self, z)
                if key in tracer.triangulations:
                    counts["charts.triangulation_repeats"] += 1
                tracer.triangulations.add(key)

    def enumerate_wrapper(surface, length_bound, *args, **kwargs):
        try:
            out = tracer.call("unfolding.enumerate", enumerate_scs,
                              surface, length_bound, *args, **kwargs)
        except UnfoldingBudgetError:
            counts["unfolding.budget_overruns"] += 1
            raise
        counts["unfolding.connections"] += len(out)
        return out

    def rank_wrapper(classes, *args, **kwargs):
        out = tracer.call("homology.rank", rank, classes, *args, **kwargs)
        counts["homology.rank_rows"] += len(classes)
        return out

    def cpa_wrapper(*args, **kwargs):
        return tracer.call("torus_oracle.cpa", cpa, *args, **kwargs)

    with _rebound([
        (sampling, "polygon_simple_mask", mask_wrapper),
        (ChartModel, "build", build_wrapper),
        (sampling, "enumerate_saddle_connections", enumerate_wrapper),
        (sampling, "independence_rank", rank_wrapper),
        (torus_oracle, "circle_polygon_area", cpa_wrapper),
    ]):
        yield tracer


@contextmanager
def counting_build_failures(counts: Counter):
    """Count the build ``SurfaceError``s that ``scan_chart`` drops.

    This is the only hook in an untraced pass: it takes no timestamps.
    """
    build = ChartModel.build

    def build_wrapper(self, z):
        try:
            return build(self, z)
        except SurfaceError:
            counts["charts.build_failures"] += 1
            raise

    with _rebound([(ChartModel, "build", build_wrapper)]):
        yield counts
