"""Monte Carlo estimation of coned short-saddle-connection loci.

Samples are drawn uniformly from the chart's parameter box (or from a
linear subspace's intrinsic box): the square |Re| < h, |Im| < h in every
sampled coordinate, h = ``ChartModel.half_width``.  The streams are
counter-based Philox: chunk c always uses the generator keyed by
(seed, c), so results are bit identical for any worker count.  A sample
is accepted for the cell with radii (eps_1 <= ... <= eps_k) when it is
admissible, has area <= 1, and the unit-area rescale carries saddle
connections s_1, ..., s_k with |s_i| <= eps_i whose classes restrict to
rank k on W; by Rado's criterion for the nested length-filtration this
holds iff the classes of connections shorter than eps_i have rank >= i
for every i.  The test never needs a rank
above k, so the prefix ranks are taken only up to k_max, the size of the
largest cell.

Each chunk rescales every sample of positive area to unit area first, then
runs one ``polygon_simple_mask`` call and one positive-area test on those
unit-area polygons (``symmetric_vertices`` and ``shoelace_area`` take the
whole stack, as ``ChartModel`` passes them one polygon).  That single batch
check decides admissibility, and it checks exactly the vertices the builder
will triangulate.  On a torus chart (``chart.dim == 2``, custom charts
too) each cone sample's basis (u, v) is then Lagrange-Gauss reduced, in one
vectorised ``reduce_lattice_bases`` call: any basis of the lattice gives the
same torus, and the reduced one has two fat triangles instead of two long
thin ones, so its unfolding expands far fewer chain nodes.  The chunk's
cone samples (on a torus, their reduced sides) are then built in one
``ChartModel.build_batch`` call: one batch ear clip of all their polygons,
the combinatorial tables looked up once per distinct triangulation, and the
edge vectors as one array; no sample is checked again or made into a
``TranslationSurface``.  A row the batch ear clip rejects is built alone
with ``ChartModel.build``, which raises; it is counted in
``ScanResult.build_failures``, stays in the plain cone count and is accepted
by no radius cell.

The built surfaces are unfolded together, in one ``unfold_surfaces`` call
per chunk; the chunk is the batch, so the counts and
``ScanResult.unfolding_nodes`` do not depend on the worker count.  Each
torus's classes come in its reduced basis B (u, v); one int64 product,
``classes @ B``, maps them back to the chart's (u, v) before the ranks, so
ranks and subspaces stay in chart coordinates.  Each surface's connections
come sorted by length, and its prefix ranks give
R_i, the length at which the rank first reaches i + 1 (inf if it never
does).  They come from a greedy pass that keeps the rows found independent
so far and ranks them with the next class not seen before on the surface,
stopping at rank k_max.  It runs for all surfaces of the chunk in rounds:
each round ranks [independent rows + next new class] of every unfinished
surface, one stacked ``independence_rank`` call per matrix height.  Cell
(eps_1 <= ... <= eps_k) accepts the surface iff R_i <= eps_(i+1) for every
i < k: the connections no longer than eps_(i+1) are a prefix of the sorted
list, and they reach rank i + 1 iff that prefix contains the one at R_i.
One broadcast comparison of the thresholds against every cell's radii
counts all cells of the chunk.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .charts import ChartModel, get_chart, square_box_volume
from .homology import LinearSubspace, independence_rank
from .surface import (
    INT64_LIMIT,
    SurfaceError,
    distinct_rows,
    polygon_simple_mask,
    reduce_lattice_bases,
    shoelace_area,
    symmetric_vertices,
)
from .unfolding import DEFAULT_BUDGET, unfold_surfaces
# enumerate_saddle_connections is not called here; it stays bound because
# perfbench/layers.py reads sampling's binding when it installs its wrappers.
from .unfolding import enumerate_saddle_connections  # noqa: F401

DEFAULT_CHUNK = 16384


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


def _sample_params(rng, size: int, dim: int, half_width: float) -> np.ndarray:
    flat = rng.uniform(-half_width, half_width, size=(size, 2 * dim))
    return flat[:, 0::2] + 1j * flat[:, 1::2]


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
    area = shoelace_area(symmetric_vertices(x))
    pos = area > 0
    area = area[pos]
    unit = x[pos] * (1.0 / np.sqrt(area))[:, None]
    verts = symmetric_vertices(unit)
    with np.errstate(over="ignore", invalid="ignore"):
        admissible = polygon_simple_mask(verts) & (shoelace_area(verts) > 0)
    return area, unit, admissible


def _rank_thresholds(batch, subspace: LinearSubspace, k_max: int) -> np.ndarray:
    """R[s, i]: the length at which the prefix rank of surface s's
    connections (sorted by length) first reaches i + 1, or inf.

    The greedy pass behind it keeps, per surface, the rows found
    independent so far and ranks them with the next class not seen before
    on that surface (a repeated class cannot raise the rank), stopping at
    rank min(k_max, dim W).  It runs for all surfaces at once in rounds:
    a round ranks [independent rows + next new class] of every unfinished
    surface, one stacked ``independence_rank`` call per matrix height.
    These are the matrices a surface-by-surface pass ranks, in its order.
    """
    n = len(batch.offsets) - 1
    thresholds = np.full((n, k_max), np.inf)
    cap = min(k_max, subspace.dim)
    surf = np.repeat(np.arange(n), np.diff(batch.offsets))
    classes = batch.classes
    # the first connection of each class on its surface, in order
    cand = np.sort(distinct_rows(np.column_stack([surf, classes]))[0])
    ptr = np.searchsorted(surf[cand], np.arange(n))
    end = np.searchsorted(surf[cand], np.arange(n), side="right")
    rows = np.zeros((n, cap, classes.shape[1]), dtype=complex)
    found = np.zeros(n, dtype=np.int64)
    while True:
        live = np.flatnonzero((found < cap) & (ptr < end))
        if not live.size:
            return thresholds
        j = cand[ptr[live]]
        for height in np.unique(found[live]).tolist():
            at = found[live] == height
            s, c = live[at], j[at]
            mats = np.concatenate([rows[s, :height], classes[c, None]], axis=1)
            grew = independence_rank(mats, subspace) > height
            s, c = s[grew], c[grew]
            rows[s, height] = classes[c]
            thresholds[s, height] = batch.length[c]
            found[s] += 1
        ptr[live] += 1


def _chart_classes(classes: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The classes (n, 2) of connections found on reduced tori, in the
    chart's basis (u, v): row i is in the reduced basis ``basis[i]`` (u, v)
    of its torus, so it maps to ``classes[i] @ basis[i]``, in int64.
    Raises ``ValueError`` when 2 max|class| max|B| could leave int64."""
    cmax = int(np.abs(classes).max(initial=0))
    bmax = int(np.abs(basis).max(initial=0))
    if 2 * cmax * bmax >= INT64_LIMIT:
        raise ValueError(f"classes up to {cmax} in bases up to {bmax} could "
                         f"reach {2 * cmax * bmax}, beyond int64 (2**63)")
    return (classes[:, None, :] @ basis)[:, 0]


def _rebuild_rejected(chart: ChartModel, sides: np.ndarray) -> int:
    """Build each row of ``sides`` that the batch builder rejected on its
    own, through ``chart.build``, so that it raises its ``SurfaceError``
    as a build of that row does; returns how many raised."""
    failures = 0
    for z in sides.tolist():
        try:
            chart.build(z)
        except SurfaceError:
            failures += 1
        else:
            raise RuntimeError(f"chart {chart.name!r}: build_batch rejected "
                               f"sides {z} that build accepts")
    return failures


def _process_chunk(args) -> tuple[np.ndarray, int, int, int]:
    (chart, subspace, seed, chunk_index, size,
     cells, l_max, k_max, budget) = args
    rng = _chunk_generator(seed, chunk_index)
    w = _sample_params(rng, size, subspace.dim, chart.half_width)
    x = subspace.embed(w)

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
        basis = None
        if chart.dim == 2:
            # Every basis of a lattice gives the same torus; the reduced one
            # has two fat triangles, whose unfolding expands few nodes.
            cone_sides, basis = reduce_lattice_bases(cone_sides)
        surfaces, built = chart.build_batch(cone_sides)
        failures = _rebuild_rejected(chart, cone_sides[~built])
        batch = unfold_surfaces(surfaces, l_max, budget=budget)
        nodes = int(batch.nodes.sum())
        if basis is not None and len(batch.classes):
            # the classes are in the reduced bases: map them back to the
            # chart's (u, v), where the ranks are taken
            surf = np.repeat(np.arange(len(surfaces)), np.diff(batch.offsets))
            batch = batch._replace(classes=_chart_classes(
                batch.classes, basis[built][surf]))
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
    polygons rescaled to unit area; the chunk's cone samples are then built
    in one batch, from those checked sides, and unfolded.  The parameters
    are the first side vectors of the polygon.  Each sampled coordinate
    (each coordinate of the subspace, when one is given) is drawn uniformly
    from the square |Re| < h, |Im| < h with h = ``chart.half_width``, and
    the estimates scale by that box's volume; any ``ChartModel`` works.
    ``threads`` is the number of worker processes (1 runs in this process);
    results do not depend on it.  A cell is one radius (a number or a 0-d
    array) or a sequence of at least one; radii must be finite and
    positive, and ``chunk_size`` and ``budget`` at least 1.
    """
    if isinstance(chart, str):
        chart = get_chart(chart)
    name = chart.name
    if subspace is None:
        subspace = LinearSubspace(chart.dim)
    elif subspace.ambient_dim != chart.dim:
        raise ValueError("subspace ambient dimension does not match chart")
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    norm_cells = []
    for c in eps_cells:
        if c is None:
            norm_cells.append(None)
        else:
            e = tuple(sorted(float(v) for v in ([c] if np.ndim(c) == 0 else c)))
            if not e:
                raise ValueError(f"radius cell {c!r} is empty")
            if not all(math.isfinite(v) and v > 0 for v in e):
                raise ValueError(f"radii must be finite and positive, got {e}")
            norm_cells.append(e)
    l_max = max((e[-1] for e in norm_cells if e is not None), default=0.0)
    k_max = max((len(e) for e in norm_cells if e is not None), default=0)

    n_chunks = (samples + chunk_size - 1) // chunk_size
    tasks = []
    for c in range(n_chunks):
        size = min(chunk_size, samples - c * chunk_size)
        tasks.append((chart, subspace, seed, c, size,
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
    vol = square_box_volume(chart.half_width, subspace.dim)

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
