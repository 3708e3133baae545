"""Monte Carlo estimation of coned short-saddle-connection loci.

Samples are drawn uniformly from the chart's parameter box (or from a
linear subspace's intrinsic box) with counter-based Philox streams: chunk
c always uses the generator keyed by (seed, c), so results are bit
identical for any worker count.  A sample is accepted for the cell with
radii (eps_1 <= ... <= eps_k) when it is admissible, has area <= 1, and
the unit-area rescale carries saddle connections s_1, ..., s_k with
|s_i| <= eps_i whose classes restrict to rank k on W; by Rado's criterion
for the nested length-filtration this holds iff the classes of connections
shorter than eps_i have rank >= i for every i.  The test never needs a rank
above k, so the prefix ranks are taken only up to k_max, the size of the
largest cell: a greedy pass keeps the rows found independent so far, ranks
them with one candidate row at a time, and stops at rank k_max.

Each chunk rescales every sample of positive area to unit area first, then
runs one ``polygon_simple_mask`` call and one positive-area test on those
unit-area polygons.  That single batch check decides admissibility, and it
checks exactly the vertices the builder will triangulate, so the cone
samples go to ``ChartModel.build`` as ``CheckedSides`` and are not checked
again one by one.  A build that still fails (ear clipping can) is counted
in ``ScanResult.build_failures``; the sample stays in the plain cone count
and is accepted by no radius cell.

The surfaces built from a chunk's cone samples are unfolded together, in
one ``unfold_surfaces`` call per chunk; the chunk is the batch, so the
counts and ``ScanResult.unfolding_nodes`` do not depend on the worker
count.  Each surface's connections come sorted by length, and its prefix
ranks give R_i, the length at which the rank first reaches i + 1 (inf if
it never does).  Cell (eps_1 <= ... <= eps_k) accepts the surface iff
R_i <= eps_(i+1) for every i < k: the connections no longer than eps_(i+1)
are a prefix of the sorted list, and they reach rank i + 1 iff that prefix
contains the one at R_i.  One broadcast comparison of the thresholds
against every cell's radii counts all cells of the chunk.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .charts import ChartModel, get_chart
from .homology import LinearSubspace, independence_rank
from .surface import (
    SurfaceError,
    checked_sides,
    polygon_simple_mask,
    symmetric_vertices_batch,
)
# enumerate_saddle_connections is not called here; it stays bound because
# perfbench/layers.py reads sampling's binding when it installs its wrappers.
from .unfolding import enumerate_saddle_connections, unfold_surfaces  # noqa: F401

DEFAULT_CHUNK = 16384
DEFAULT_BUDGET = 1_000_000


@dataclass(frozen=True)
class ConingEstimate:
    """Monte Carlo estimate of the cone-set measure for one radius vector."""

    value: float
    standard_error: float
    samples: int
    seed: int
    eps: tuple[float, ...] | None
    accepted: int
    admissible: int
    box_volume: float

    @property
    def relative_error(self) -> float:
        return self.standard_error / self.value if self.value > 0 else math.inf


@dataclass(frozen=True)
class ScanResult:
    chart: str
    estimates: tuple[ConingEstimate, ...]
    admissible_fraction: float
    build_failures: int  # cone samples whose build raised SurfaceError
    unfolding_nodes: int  # chain nodes the unfolding expanded, all chunks


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    bits = np.random.Philox(key=seed, counter=[0, 0, 0, chunk_index])
    return np.random.Generator(bits)


def _square_half_width(chart: ChartModel) -> float:
    """h such that every coordinate box of the chart is (-h, h, -h, h).

    Samples are drawn from that square box; any other box would be
    sampled wrongly while its volume scaled the estimate.
    """
    h = chart.param_box[0][1]
    if not h > 0 or any(tuple(b) != (-h, h, -h, h) for b in chart.param_box):
        raise ValueError(
            f"chart {chart.name!r}: scan_chart samples only boxes "
            f"(-h, h, -h, h) with the same h > 0 on every coordinate, "
            f"got {chart.param_box}")
    return h


def _sample_params(rng, size: int, dim: int, half_width: float) -> np.ndarray:
    flat = rng.uniform(-half_width, half_width, size=(size, 2 * dim))
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def _prefix_ranks(classes: np.ndarray, subspace: LinearSubspace,
                  k_max: int) -> list[int]:
    """min(rank of classes[:j] on W, k_max) for j = 1, ..., len(classes).

    A class equal to an earlier one (homologous connections) cannot raise
    the rank, so it is not ranked again.
    """
    cap = min(k_max, subspace.dim)
    independent: list[int] = []
    seen = set()
    ranks = []
    for j in range(classes.shape[0]):
        if len(independent) >= cap:
            break
        key = classes[j].tobytes()
        if key not in seen:
            seen.add(key)
            rank = independence_rank(classes[independent + [j]], subspace)
            if rank > len(independent):
                independent.append(j)
        ranks.append(len(independent))
    ranks.extend([len(independent)] * (classes.shape[0] - len(ranks)))
    return ranks


def _areas(verts: np.ndarray) -> np.ndarray:
    """Signed shoelace area of each row of polygon vertices."""
    nxt = np.roll(verts, -1, axis=1)
    return 0.5 * (verts.real * nxt.imag - verts.imag * nxt.real).sum(axis=1)


def _unit_area_check(x: np.ndarray):
    """Rescale the samples ``x`` (batch, n) of positive area to unit area
    and check those in one batch.

    Returns their areas before the rescale, their unit-area sides, and
    which of them are admissible: one ``polygon_simple_mask`` call and a
    positive-area test on the unit-area vertices, which are bit for bit
    the vertices the builder triangulates.

    A sliver of tiny area rescales to vertices whose products overflow.
    Its shortest edge is then far below the mask's relative tolerance, and
    inf or nan fail every strict test, so it is rejected; the overflow is
    expected and not reported.
    """
    area = _areas(symmetric_vertices_batch(x))
    pos = area > 0
    area = area[pos]
    unit = x[pos] * (1.0 / np.sqrt(area))[:, None]
    verts = symmetric_vertices_batch(unit)
    with np.errstate(over="ignore", invalid="ignore"):
        admissible = polygon_simple_mask(verts) & (_areas(verts) > 0)
    return area, unit, admissible


def _rank_thresholds(batch, subspace: LinearSubspace, k_max: int) -> np.ndarray:
    """R[s, i]: the length at which the prefix rank of surface s's
    connections (sorted by length) first reaches i + 1, or inf."""
    thresholds = np.full((len(batch.dims), k_max), np.inf)
    for s in range(len(batch.dims)):
        a, b = batch.offsets[s], batch.offsets[s + 1]
        if a == b:
            continue
        classes = batch.classes[a:b, :batch.dims[s]].astype(complex)
        ranks = _prefix_ranks(classes, subspace, k_max)
        first = np.searchsorted(ranks, np.arange(1, k_max + 1))
        reached = first < b - a
        thresholds[s, reached] = batch.length[a + first[reached]]
    return thresholds


def _process_chunk(args) -> tuple[np.ndarray, int, int, int]:
    (chart, half_width, basis, seed, chunk_index, size,
     cells, l_max, k_max, budget) = args
    rng = _chunk_generator(seed, chunk_index)
    dim = chart.dim if basis is None else basis.shape[1]
    w = _sample_params(rng, size, dim, half_width)
    x = w if basis is None else w @ basis.T
    subspace = LinearSubspace(chart.dim, basis)

    area, unit, admissible = _unit_area_check(x)
    cone = admissible & (area <= 1.0)
    cone_sides = unit[cone]
    del w, x, unit  # not needed while the chunk's cone samples unfold

    counts = np.zeros(len(cells), dtype=np.int64)
    plain_cells = [i for i, c in enumerate(cells) if c is None]
    eps_cells = [i for i, c in enumerate(cells) if c is not None]
    if plain_cells:
        counts[plain_cells] = int(cone.sum())

    failures = 0
    nodes = 0
    if eps_cells and l_max > 0:
        surfaces = []
        for sides in checked_sides(cone_sides):
            try:
                surfaces.append(chart.build(sides))
            except SurfaceError:
                failures += 1
        batch = unfold_surfaces(surfaces, l_max, budget=budget)
        nodes = int(batch.nodes.sum())
        # Cell (eps_1 <= ... <= eps_k) accepts iff R[:, i] <= eps_(i+1) for
        # every i < k; radii past k are inf and pass.
        radii = np.full((len(eps_cells), k_max), np.inf)
        for row, i in enumerate(eps_cells):
            radii[row, :len(cells[i])] = cells[i]
        thresholds = _rank_thresholds(batch, subspace, k_max)
        accepts = (thresholds[:, None, :] <= radii[None, :, :]).all(axis=2)
        counts[eps_cells] = accepts.sum(axis=0)
    return counts, int(admissible.sum()), failures, nodes


def scan_chart(
    chart: ChartModel | str,
    subspace: LinearSubspace | None,
    eps_cells,
    samples: int,
    seed: int,
    threads: int = 1,
    chunk_size: int = DEFAULT_CHUNK,
    budget: int = DEFAULT_BUDGET,
) -> ScanResult:
    """Estimate the cone-set measure for every radius vector in ``eps_cells``.

    Cells share one sample stream and one enumeration per sample (at the
    largest radius, all cone samples of a chunk in one batched search), so
    a grid scan costs one pass.  A cell of None
    estimates the plain cone volume (admissible, area <= 1).  Admissibility
    is one batch simplicity mask and positive-area test per chunk, on the
    polygons rescaled to unit area; each cone sample is then built once,
    from those checked sides, and unfolded.  The parameters are the first
    side vectors of the polygon.  The chart's box must be (-h, h, -h, h)
    with one h on every coordinate; any ``ChartModel`` with such a box
    works.  ``threads`` is the number of worker processes (1 runs in this
    process); results do not depend on it.
    """
    if isinstance(chart, str):
        chart = get_chart(chart)
    name = chart.name
    half_width = _square_half_width(chart)
    basis = None
    if subspace is not None and subspace.basis is not None:
        if subspace.ambient_dim != chart.dim:
            raise ValueError("subspace ambient dimension does not match chart")
        basis = np.asarray(subspace.basis)
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    norm_cells = []
    for c in eps_cells:
        if c is None:
            norm_cells.append(None)
        else:
            e = tuple(sorted(float(v) for v in (c if hasattr(c, "__len__") else [c])))
            if any(v <= 0 for v in e):
                raise ValueError("radii must be positive")
            norm_cells.append(e)
    l_max = max((e[-1] for e in norm_cells if e is not None), default=0.0)
    k_max = max((len(e) for e in norm_cells if e is not None), default=0)

    n_chunks = (samples + chunk_size - 1) // chunk_size
    tasks = []
    for c in range(n_chunks):
        size = min(chunk_size, samples - c * chunk_size)
        tasks.append((chart, half_width, basis, seed, c, size,
                      norm_cells, l_max, k_max, budget))

    if threads <= 1:
        results = list(map(_process_chunk, tasks))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_process_chunk, tasks))
    counts = np.zeros(len(norm_cells), dtype=np.int64)
    n_adm = 0
    n_failed = 0
    n_nodes = 0
    for cts, adm, failed, nodes in results:
        counts += cts
        n_adm += adm
        n_failed += failed
        n_nodes += nodes

    # intrinsic box volume: one box per sampled coordinate
    dim = chart.dim if basis is None else basis.shape[1]
    rl, rh, il, ih = chart.param_box[0]
    vol = 1.0
    for _ in range(dim):
        vol *= (rh - rl) * (ih - il)

    adm_fraction = n_adm / samples
    if adm_fraction < 0.01:
        warnings.warn(
            f"admissibility rejection above 99% on chart {name}; "
            "the parameter box is poorly chosen", RuntimeWarning)

    out = []
    for cell, k in zip(norm_cells, counts):
        p = k / samples
        stderr = vol * math.sqrt(p * (1.0 - p) / samples)
        out.append(ConingEstimate(
            value=p * vol, standard_error=stderr, samples=samples, seed=seed,
            eps=cell, accepted=int(k), admissible=n_adm, box_volume=vol))
    return ScanResult(name, tuple(out), adm_fraction, n_failed, n_nodes)


def estimate_coned_measure(
    chart: ChartModel | str,
    subspace: LinearSubspace | None,
    eps,
    samples: int,
    seed: int,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> ConingEstimate:
    """Single-cell version of :func:`scan_chart`.

    ``eps`` may be None to estimate the plain cone volume.
    """
    res = scan_chart(chart, subspace, [eps], samples, seed,
                     threads=threads, budget=budget)
    return res.estimates[0]
