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

The scan runs in two stages.  The front end runs once per chunk: it draws
the chunk's samples and keeps only those with 0 < area <= 1, since no
other sample can reach the cone.  The area of every sample comes first in
closed form from its sides, sum_i cross(z_1 + ... + z_i, z_(i+1)), which
settles the samples clearly below area 0 or above area 1; only the rest
(near or below area 1) get the exact shoelace area of their vertices,
which decides both gates and the rescale, so the gates are those of the
shoelace area of every sample, bit for bit.  The front end rescales the
samples with 0 < area <= 1 to unit area and runs one
``polygon_simple_mask`` call and one positive-area test on the unit-area
polygons (``symmetric_vertices`` and ``shoelace_area`` take the whole
stack, as ``ChartModel`` passes them one polygon).  That single batch
check decides admissibility, and it checks
exactly the vertices the builder will triangulate; the mask decides each
row alone, so masking only these rows gives the cone set that masking
every sample of positive area gives.  ``ScanResult`` reports the gate
counts: positive area, area <= 1, admissible (the cone).

The back end runs once per batch of cone samples.  Each worker scans one
contiguous range of chunks (one range, in this process, for
``threads=1``) and gathers the cone samples of its chunks until at least
``DEFAULT_CHUNK`` of them wait, then passes them through the back end in
one batch; the rest goes through once more at the end.  On a torus chart
(``chart.dim == 2``, custom charts too) each cone sample's basis (u, v) is
first Lagrange-Gauss reduced, in one vectorised ``reduce_lattice_bases``
call: any basis of the lattice gives the same torus, and the reduced one
has two fat triangles instead of two long thin ones, so its unfolding
expands far fewer chain nodes.  The batch's cone samples (on a torus,
their reduced sides) are then built in one ``ChartModel.build_batch``
call: one batch ear clip of all their polygons, the cached tables of each
distinct triangulation gathered once onto the rows of its surfaces, and
the edge vectors as one array, all in one ``SurfaceBatch`` of flat
half-edge arrays; no sample is checked again or made into a
``TranslationSurface``.  A torus built on its reduced basis B (u, v) has
its edge rows in that basis; ``SurfaceBatch.rebased`` rewrites each row c
as c @ B, its row in the chart's (u, v), before the search, so there is
no class map: every class comes out of the unfolding in chart
coordinates, where the ranks and subspaces are taken.
A row the batch ear clip rejects is built alone with ``ChartModel.build``,
which raises; it is counted in ``ScanResult.build_failures``, stays in the
plain cone count and is accepted by no radius cell.

So the back end runs, per batch: reduce (tori), build, rebase (tori),
retriangulate (all but the tori), the edge pass, unfold the surfaces that
are not Delaunay, rank, test the cells.  ``SurfaceBatch.delaunay``
retriangulates the built surfaces toward Delaunay in vectorised rounds
of cylinder twists and edge flips, until a round changes nothing.  The ear
clip leaves long thin triangles, and a Delaunay surface needs no unfolding
at all (below).  A reduced torus is Delaunay as built
(``reduce_lattice_bases``), so the tori skip the retriangulation, which
would rewrite their glued half-edges.

The cells need R_0, ..., R_(cap - 1) only, cap = min(k_max, dim W), and
of each only whether it is at most a radius of the cell grid (every
radius of every cell).  Every edge of a surface is a saddle connection,
so the greedy pass below, run over the edges of surface s sorted by
length (``_edge_thresholds``), gives thresholds E_i >= R_i on any
triangulation.  On a Delaunay triangulation E_i = R_i, because every
connection that the greedy pass over the connections picks is an edge.
Let gamma, from cone point A to cone point B, be picked at length l.
Were there a cone point p other than A and B in the closed disk with
diameter gamma, developed from gamma, choose one such that the triangle
ApB holds no cone point inside.  Cut at the cone points on them, Ap and
pB are connections strictly shorter than l, as |Ap|^2 + |pB|^2 <= l^2,
and their classes sum to gamma's.  So gamma's class, restricted to W,
would lie in the span of strictly shorter connections, and the pass would
not pick gamma.  Hence gamma's closed diametral disk holds no other cone
point, and then gamma is an edge of every Delaunay triangulation
(Delaunay triangulations of flat surfaces: Masur & Smillie, Ann. of Math.
1991; the empty-disk property: Bobenko & Springborn, Discrete Comput.
Geom. 2007).  Restriction to W is linear, so this holds for any W.  The
edges no longer than L therefore span on W what the connections no longer
than L span, for every L, and an edge's length is the ``hypot`` of its
half-edge in the kept half plane, the float the search reports for it, so
E_i = R_i bit for bit.  The argument takes the ranks of
``independence_rank`` as the exact ranks of these integer classes; on the
full space they are (minors in int64, for up to three rows).

``SurfaceBatch.is_delaunay`` tells the Delaunay surfaces: no edge with
cot(alpha) + cot(beta) < -1e-9, the rule by which the retriangulation
flips, so an edge within that tolerance of the rule counts as Delaunay;
``tests/test_sampling.py`` checks E against the search on every Delaunay
surface of its golden cone batches.  A Delaunay surface whose edges reach
rank cap on W (``_edge_pass``) takes E as its thresholds and is not
searched; when every surface of a batch does, nothing is unfolded.

The other surfaces, the rare ones the retriangulation leaves with a
candidate edge and any whose edges fall short of rank cap, are taken out
of the batch (``SurfaceBatch.take``) and unfolded in one
``unfold_surfaces`` call to l_max (1 + 2 ``GUESS_SLACK``), l_max the
largest radius, and take the thresholds of their connections.  The slack
covers the rounding of the search's pruning tests, which compare
squares, so every connection no longer than l_max (1 + GUESS_SLACK) is
found and any R_i up to there is exact; any other R_i is inf or a found
length above l_max, and fails every cell, as the true R_i does.
``ScanResult.unfolding_nodes``, like ``DEFAULT_BUDGET``, counts the nodes
these searches expand.  Each surface's retriangulation, edge thresholds,
connections, ranks and nodes do not depend on which batch holds it, so the
counts and the nodes do not depend on the worker count.

Each surface's connections come sorted by length, and its prefix ranks
give R_i, the length at which the rank first reaches i + 1 (inf if it
never does).  They come from a greedy pass (``_greedy_thresholds``) that
keeps the rows found independent so far and ranks them with the next
candidate (the next class not seen before on the surface, or the next
edge), stopping at rank cap.  It runs for all surfaces of the batch in
rounds: each round ranks [independent rows + next candidate] of every
unfinished surface, one stacked ``independence_rank`` call per matrix
height.  Cell (eps_1 <= ... <= eps_k) accepts the surface iff
R_i <= eps_(i+1) for every i < k: the connections no longer than
eps_(i+1) are a prefix of the sorted list, and they reach rank i + 1 iff
that prefix contains the one at R_i.  One broadcast comparison of the
thresholds against every cell's radii counts all cells of the batch.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .charts import ChartModel, get_chart, square_box_volume
from .checks import integer, radii
from .homology import LinearSubspace, independence_rank
from .surface import (
    SurfaceBatch,
    SurfaceError,
    distinct_rows,
    polygon_simple_mask,
    reduce_lattice_bases,
    shoelace_area,
    symmetric_vertices,
)
from .unfolding import DEFAULT_BUDGET, kept_orientation, unfold_surfaces
# enumerate_saddle_connections is not called here; it stays bound because
# perfbench/layers.py reads sampling's binding when it installs its wrappers.
from .unfolding import enumerate_saddle_connections  # noqa: F401

DEFAULT_CHUNK = 16384
GUESS_SLACK = 1e-9  # relative room above l_max in the reach of the scan's search
_FLOAT_TINY = 2.0 ** -1022  # the least normal float


@dataclass(frozen=True)
class ConingEstimate:
    """Monte Carlo estimate of the cone-set measure for one radius vector."""

    value: float
    standard_error: float
    samples: int
    seed: int
    eps: tuple[float, ...] | None
    accepted: int
    admissible: int  # samples with 0 < area <= 1 that the mask passes: the cone
    box_volume: float


@dataclass(frozen=True)
class ScanResult:
    """What one scan found, gate by gate: of the samples drawn, those of
    positive area, of those the ones of area <= 1, and of those the ones
    that pass the mask (the cone), then the build failures among them."""

    chart: str
    estimates: tuple[ConingEstimate, ...]
    positive_area: int  # samples whose polygon has positive signed area
    area_at_most_one: int  # of those, area <= 1: the samples masked
    admissible: int  # of those, the ones the mask passes: the cone
    admissible_fraction: float  # admissible / area_at_most_one, or 0.0
    build_failures: int  # cone samples whose build raised SurfaceError
    unfolding_nodes: int  # chain nodes expanded, all batches: non-Delaunay surfaces only


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    bits = np.random.Philox(key=seed, counter=[0, 0, 0, chunk_index])
    return np.random.Generator(bits)


def _sample_params(rng, size: int, dim: int, half_width: float) -> np.ndarray:
    flat = rng.uniform(-half_width, half_width, size=(size, 2 * dim))
    return flat.view(complex)  # (re, im) pairs of columns, no copy


def _unit_area_check(x: np.ndarray):
    """Rescale the samples ``x`` (batch, n) with 0 < area <= 1 to unit area
    and check those in one batch.

    Returns how many samples have positive area, the unit-area sides of
    those with 0 < area <= 1, and which of those are admissible: one
    ``polygon_simple_mask`` call and a positive-area test on the unit-area
    vertices, which are bit for bit the vertices the builder triangulates.
    A sample of area > 1 can never be in the cone, so it is neither
    rescaled nor masked; the mask decides each row alone, so the cone set
    is the one a check of every sample of positive area gives.

    Both area gates and the rescale use the shoelace area of the vertices,
    ``shoelace_area(symmetric_vertices(x))``, but it is taken only for
    the rows whose gates the closed form a = sum_i cross(z_1 + ... + z_i,
    z_(i+1)) cannot decide: a row with a < -margin has negative shoelace
    area, and one with a > 1 + margin has shoelace area > 1, where
    margin = 1e-12 n^2 s^2 + tiny and s = sum_i (|Re z_i| + |Im z_i|).
    Every product and term of either sum is at most s^2, so each is off
    by a few n^2 ulps of s^2, and by a few subnormal ulps where it
    underflows, which tiny (the least normal float) covers; where s^2
    overflows, margin is inf and the shoelace area decides.  So every gate
    and every unit-area side is the one the shoelace area of every row
    gives, bit for bit.

    A row whose products overflow has a shoelace area of inf or nan, and a
    sliver of tiny area rescales to vertices whose products overflow (its
    shortest edge is then far below the mask's relative tolerance).  inf
    and nan fail every strict test, so the gates decide such rows; the
    overflow is expected and not reported.
    """
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        closed, part = np.zeros(len(x)), x[:, 0]
        s = abs(part.real) + abs(part.imag)
        for k in range(1, n):
            z = x[:, k]
            closed += part.real * z.imag - part.imag * z.real
            part = part + z
            s += abs(z.real)
            s += abs(z.imag)
        margin = 1e-12 * n * n * (s * s) + _FLOAT_TINY
    above = closed > 1.0 + margin
    near = x[~(above | (closed < -margin))]
    with np.errstate(over="ignore", invalid="ignore"):
        area = shoelace_area(symmetric_vertices(near))
    positive = area > 0
    small = positive & (area <= 1.0)
    unit = near[small] * (1.0 / np.sqrt(area[small]))[:, None]
    verts = symmetric_vertices(unit)
    with np.errstate(over="ignore", invalid="ignore"):
        admissible = polygon_simple_mask(verts) & (shoelace_area(verts) > 0)
    return int(positive.sum() + above.sum()), unit, admissible


def _rank_thresholds(batch, subspace: LinearSubspace, k_max: int) -> np.ndarray:
    """R[s, i]: the length at which the prefix rank of surface s's
    connections (sorted by length) first reaches i + 1, or inf.

    The candidates of each surface are its connections in order, each
    class only at its first connection on the surface (a repeated class
    cannot raise the rank); ``_greedy_thresholds`` ranks them.
    """
    n = len(batch.offsets) - 1
    surf = np.repeat(np.arange(n), np.diff(batch.offsets))
    # the first connection of each class on its surface, in order
    cand = np.sort(distinct_rows(np.column_stack([surf, batch.classes]))[0])
    ptr = np.searchsorted(surf[cand], np.arange(n))
    end = np.searchsorted(surf[cand], np.arange(n), side="right")
    return _greedy_thresholds(batch.classes, batch.length, cand, ptr, end,
                              subspace, k_max)


def _edge_thresholds(surfaces: SurfaceBatch, subspace: LinearSubspace,
                     k_max: int) -> np.ndarray:
    """E[s, i]: the length at which the prefix rank of surface s's edges,
    sorted by length, first reaches i + 1, or inf.

    Every edge is a saddle connection, and its length is the ``hypot`` of
    its half-edge in the kept half plane (``kept_orientation``), the one
    the search reports: the two half-edges of an edge may differ in their
    last bits.  The surfaces must have one size, as a chart's do, so that
    the edges lie in a (surfaces, edges) layout, sorted per row by a
    stable ``argsort``; their classes then go through the greedy pass of
    ``_greedy_thresholds``, repeated classes included.
    """
    n = len(surfaces)
    per = int(surfaces.start[1]) // 2 if n else 0  # edges per surface
    if (np.diff(surfaces.start) != 2 * per).any():
        raise ValueError("the edge pass needs surfaces of one size")
    nbr = surfaces.neighbor
    first = (np.arange(nbr.size) < nbr).nonzero()[0]  # one half-edge per edge
    x, y = surfaces.edge
    m = np.hypot(x, y)
    h = np.where(kept_orientation(x.take(first), y.take(first), m.take(first)),
                 first, nbr.take(first)).reshape(n, per)
    h = np.take_along_axis(h, np.argsort(m.take(h), axis=1, kind="stable"), 1)
    h = h.reshape(-1)
    ptr = np.arange(n) * per
    return _greedy_thresholds(surfaces.coeffs.take(h, 1).T, m.take(h),
                              np.arange(h.size), ptr, ptr + per, subspace, k_max)


def _greedy_thresholds(classes, length, cand, ptr, end,
                       subspace: LinearSubspace, k_max: int) -> np.ndarray:
    """T[s, i]: the length at which the rank of surface s's candidates
    ``cand[ptr[s]:end[s]]`` (rows of ``classes`` and ``length``, in
    order) first reaches i + 1, or inf.

    The greedy pass keeps, per surface, the rows found independent so far
    and ranks them with its next candidate, stopping at rank min(k_max,
    dim W).  It runs for all surfaces at once in rounds: a round ranks
    [independent rows + next candidate] of every unfinished surface, one
    stacked ``independence_rank`` call per matrix height.  These are the
    matrices a surface-by-surface pass ranks, in its order.  The rows keep
    the dtype of ``classes``, so int64 classes on the full space are
    ranked exactly.
    """
    n = len(ptr)
    thresholds = np.full((n, k_max), np.inf)
    cap = min(k_max, subspace.dim)
    rows = np.zeros((n, cap, classes.shape[1]), dtype=classes.dtype)
    found = np.zeros(n, dtype=np.int64)
    ptr = ptr.copy()
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
            thresholds[s, height] = length[c]
            found[s] += 1
        ptr[live] += 1


def _edge_pass(surfaces: SurfaceBatch, subspace: LinearSubspace,
               k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The edge thresholds E (``_edge_thresholds``) and which surfaces they
    are exact on: the Delaunay ones (``SurfaceBatch.is_delaunay``) whose
    edges reach rank min(k_max, dim W) on W."""
    edges = _edge_thresholds(surfaces, subspace, k_max)
    cap = min(k_max, subspace.dim)
    return edges, surfaces.is_delaunay() & np.isfinite(edges[:, cap - 1])


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


def _process_chunk(chart: ChartModel, subspace: LinearSubspace, seed: int,
                   chunk_index: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The front end of one chunk: draw its ``size`` samples and check the
    ones with 0 < area <= 1 (``_unit_area_check``).

    Returns the unit-area sides of its cone samples and its gate counts
    (positive area, area <= 1, admissible); every other array of the chunk
    is freed on return.
    """
    rng = _chunk_generator(seed, chunk_index)
    x = subspace.embed(_sample_params(rng, size, subspace.dim, chart.half_width))
    positive, unit, admissible = _unit_area_check(x)
    gates = np.array([positive, len(unit), int(admissible.sum())], np.int64)
    return unit[admissible], gates


def _cone_surfaces(chart: ChartModel,
                   cone_sides: np.ndarray) -> tuple[SurfaceBatch, int]:
    """The surfaces the back end unfolds, from a batch of cone samples:
    reduce (tori), build, rebase (tori), retriangulate toward Delaunay (all
    but the tori).  Returns them, one per row that builds, and the number
    of rows whose build raised."""
    if chart.dim != 2:
        surfaces, built = chart.build_batch(cone_sides)
        failures = _rebuild_rejected(chart, cone_sides[~built])
        # the same surfaces, half the chain nodes
        return surfaces.delaunay(), failures
    # Every basis of a lattice gives the same torus; the reduced one has
    # two fat triangles, whose unfolding expands few nodes, and is Delaunay.
    cone_sides, basis = reduce_lattice_bases(cone_sides)
    surfaces, built = chart.build_batch(cone_sides)
    # the rows are in the reduced bases: rebase them to the chart's (u, v),
    # so the classes, and the ranks, are in chart coordinates
    surfaces = surfaces.rebased(basis[built])
    return surfaces, _rebuild_rejected(chart, cone_sides[~built])


def _count_cone_batch(chart: ChartModel, subspace: LinearSubspace,
                      cone_sides: np.ndarray, radii: np.ndarray,
                      budget: int) -> np.ndarray:
    """The back end of a batch of cone samples, from any chunks: build the
    surfaces (``_cone_surfaces``), run the edge pass (``_edge_pass``),
    unfold each surface that it leaves inexact to l_max (1 + 2
    ``GUESS_SLACK``), l_max the largest radius, rank, and test every radius
    cell.

    ``radii`` (cells, k_max) holds each cell's radii, padded with inf.
    Returns one int64 tally: the build failures, the chain nodes, then the
    accepted count of each cell.  The batch takes one ``unfold_surfaces``
    call, or none when the edge thresholds are exact on every surface.
    Each sample's thresholds and nodes are its own, so the tallies of two
    batches add up to that of their concatenation.
    """
    surfaces, failures = _cone_surfaces(chart, cone_sides)
    k_max = radii.shape[1]
    thresholds, exact = _edge_pass(surfaces, subspace, k_max)
    nodes = 0
    inexact = (~exact).nonzero()[0]
    if inexact.size:
        reach = radii[np.isfinite(radii)].max() * (1 + 2 * GUESS_SLACK)
        batch = unfold_surfaces(surfaces.take(inexact), reach, budget=budget)
        nodes = batch.nodes.sum()
        thresholds[inexact] = _rank_thresholds(batch, subspace, k_max)
    # Cell (eps_1 <= ... <= eps_k) accepts iff R[:, i] <= eps_(i+1) for
    # every i < k; radii past k are inf and pass.
    accepts = (thresholds[:, None, :] <= radii[None, :, :]).all(axis=2)
    return np.concatenate([[failures, nodes], accepts.sum(axis=0)])


def _scan_chunks(args) -> np.ndarray:
    """One worker's scan of a contiguous range of chunks of ``chunk``
    samples each.

    The front end runs once per chunk.  Its cone samples wait until at
    least ``chunk`` of them have gathered, then go through the back end in
    one batch; the rest goes through once more at the end.  With no radius
    cell (``radii`` has no rows) nothing is unfolded.  Returns one int64
    tally: the 3 gate counts, the build failures, the chain nodes, then
    the accepted count of each radius cell.
    """
    chart, subspace, seed, chunks, chunk, samples, radii, budget = args
    tally = np.zeros(5 + len(radii), np.int64)
    pending, waiting = [], 0
    for c in chunks:
        size = min(chunk, samples - c * chunk)
        cone_sides, gates = _process_chunk(chart, subspace, seed, c, size)
        tally[:3] += gates
        if len(radii):
            pending.append(cone_sides)
            waiting += len(cone_sides)
        if waiting and (waiting >= chunk or c == chunks[-1]):
            tally[3:] += _count_cone_batch(chart, subspace, np.concatenate(pending),
                                           radii, budget)
            pending, waiting = [], 0
    return tally


def scan_chart(
    chart: ChartModel | str,
    subspace: LinearSubspace | None,
    eps_cells,
    samples: int,
    seed: int,
    threads: int = 1,
) -> ScanResult:
    """Estimate the cone-set measure for every radius vector in ``eps_cells``.

    Cells share one sample stream and one edge pass per sample, with an
    enumeration to the largest radius only where the retriangulated
    surface is not Delaunay (the cone samples in batches), so a grid scan
    costs one pass.  A cell of None estimates the plain cone volume
    (admissible, area <= 1).
    Admissibility is one batch simplicity mask and positive-area test per
    chunk, on its samples with 0 < area <= 1 rescaled to unit area; the
    cone samples are then built from those checked sides and unfolded in
    batches.  The parameters are the first side vectors of the polygon.
    Each sampled coordinate (each coordinate of the subspace, when one is
    given) is drawn uniformly from the square |Re| < h, |Im| < h with
    h = ``chart.half_width``, and the estimates scale by that box's
    volume; any ``ChartModel`` works.  ``threads`` is the number of worker
    processes (1 runs in this process), each scanning one contiguous range
    of chunks; results do not depend on it.  A ``RuntimeWarning`` says when
    under 1 % of the samples with 0 < area <= 1 are admissible, or none has
    such an area.

    ``chart`` is a chart name or a ``ChartModel``, and ``eps_cells`` a
    sequence of cells, not a string.  A cell is None, one radius (a number
    or a 0-d array) or a sequence of at least one (``checks.radii``); radii
    must be finite and positive real numbers, not bools, strings or complex
    numbers.  ``samples`` and ``threads`` must be integers, not bools, of
    at least 1 (``samples`` at least 1000), and ``seed`` an integer, not a
    bool, in [0, 2**128), the Philox key range; ``subspace`` None or a
    ``LinearSubspace`` of the chart's dimension whose basis maps the box
    to finite points; a ``ValueError`` names the argument otherwise.
    """
    if isinstance(chart, str):
        chart = get_chart(chart)
    elif not isinstance(chart, ChartModel):
        raise ValueError(f"chart must be a chart name or a ChartModel, got {chart!r}")
    name = chart.name
    if subspace is None:
        subspace = LinearSubspace(chart.dim)
    elif not isinstance(subspace, LinearSubspace):
        raise ValueError(f"subspace must be None or a LinearSubspace, "
                         f"got {type(subspace).__name__}")
    elif subspace.ambient_dim != chart.dim:
        raise ValueError("subspace ambient dimension does not match chart")
    elif subspace.basis is not None:
        # |Re|, |Im| of an embedded coordinate stay below this, and so do
        # the partial sums of embed's complex matmul
        with np.errstate(over="ignore"):
            reach = 2 * chart.half_width * np.abs(subspace.basis).sum(axis=1).max()
        if not math.isfinite(reach):
            raise ValueError(f"subspace: the box of half-width {chart.half_width} "
                             "overflows in the basis; scale the basis down")
    for arg, value in (("samples", samples), ("threads", threads)):
        integer(value, arg)
    # a Philox key: None would draw OS entropy, which no rerun repeats
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= int(seed) < 2**128):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if (isinstance(eps_cells, str) or not isinstance(eps_cells, Iterable)
            or getattr(eps_cells, "ndim", None) == 0):
        raise ValueError(f"eps_cells must be a sequence of radius cells, "
                         f"got {eps_cells!r}")
    norm_cells = [None if c is None else tuple(sorted(radii(c, f"radius cell {c!r}")))
                  for c in eps_cells]
    eps_cells = [c for c in norm_cells if c is not None]
    k_max = max((len(e) for e in eps_cells), default=0)
    cell_radii = np.full((len(eps_cells), k_max), np.inf)
    for row, e in enumerate(eps_cells):
        cell_radii[row, :len(e)] = e

    # Read here, so that the workers get this process's values under any
    # start method.  Each worker scans one contiguous range of chunks.
    chunk, budget = DEFAULT_CHUNK, DEFAULT_BUDGET
    n_chunks = -(-samples // chunk)
    workers = max(1, min(threads, n_chunks))
    tasks = [(chart, subspace, seed,
              range(w * n_chunks // workers, (w + 1) * n_chunks // workers),
              chunk, samples, cell_radii, budget)
             for w in range(workers)]
    if workers == 1:
        results = list(map(_scan_chunks, tasks))
    else:
        # imported here: it loads multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunks, tasks))
    positive, small, n_adm, n_failed, n_nodes, *eps_counts = sum(results).tolist()
    eps_counts = iter(eps_counts)
    counts = [n_adm if c is None else next(eps_counts) for c in norm_cells]

    # intrinsic box volume: one box per sampled coordinate
    vol = square_box_volume(chart.half_width, subspace.dim)

    adm_fraction = n_adm / small if small else 0.0
    if adm_fraction < 0.01:
        warnings.warn(
            f"admissibility rejection above 99% on chart {name} ({n_adm} of "
            f"{small} samples with 0 < area <= 1 admissible); "
            "the parameter box is poorly chosen", RuntimeWarning)

    out = []
    for cell, k in zip(norm_cells, counts):
        p = k / samples
        stderr = vol * math.sqrt(p * (1.0 - p) / samples)
        out.append(ConingEstimate(
            value=p * vol, standard_error=stderr, samples=samples, seed=seed,
            eps=cell, accepted=k, admissible=n_adm, box_volume=vol))
    return ScanResult(
        chart=name, estimates=tuple(out), positive_area=positive,
        area_at_most_one=small, admissible=n_adm,
        admissible_fraction=adm_fraction, build_failures=n_failed,
        unfolding_nodes=n_nodes)
