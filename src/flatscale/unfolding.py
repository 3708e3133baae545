"""Saddle connection enumeration by geodesic unfolding, batched.

From every corner at a cone point we develop chains of triangles into the
plane, keeping the wedge of directions that remain visible from the corner
through the chain of crossed edges.  A cone point landing strictly inside
the wedge within radius L is a saddle connection; it also blocks the ray
beyond it, so the wedge is split there with open boundaries.  Each oriented
connection is found exactly once: its direction lies in exactly one corner
wedge when wedges are taken half open.  Connections are told apart by their
starting corner, so distinct homologous connections with equal holonomy
(the two boundaries of a cylinder) are each reported.

Only one orientation of each +- pair is returned unless all orientations
are asked for, so the search then covers only the kept half plane: every
corner wedge is clipped to the directions from DOWN below the positive
real axis to DOWN below the negative one before it is developed.  DOWN is
far above the wedge and pairing tolerances, so everything the clip cuts
away lies in the discarded half plane.

:func:`unfold_surfaces` searches a whole batch of surfaces at once, one
level of chain depth per step.  The frontier of every corner of every
surface lives in flat arrays: root corner, entry half-edge, the two
developed corner positions and their int64 classes, and the wedge.  A step
expands a whole level and lays out each node's children in parent order,
the child through edge e+1 before the child through edge e+2, so each
corner's nodes come out in breadth-first order.  The float arithmetic is
that of a scalar search, done in the same order, so every surface gets
exactly the connections it gets alone.

The canonical order, per surface: the connections in search order, each
corner's in turn, sorted stably by length, angle, start zero and end zero.
Nothing is deduped: the half-open wedges emit each connection once by
construction, on the closed tables that the surface constructor checks.
:func:`enumerate_saddle_connections` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .surface import INT64_LIMIT, SurfaceBatch, TranslationSurface

WEDGE_EPS = 1e-9  # relative angular tolerance for boundary coincidence
PAIR_EPS = 1e-12  # relative tolerance for the horizontal-direction tiebreak
DOWN = 1e-6  # angle below the real axis down to which the canonical search runs
_SIN_DOWN = math.sin(DOWN)
_BELOW_POS = complex(math.cos(DOWN), -_SIN_DOWN)   # angle -DOWN
_BELOW_NEG = complex(-math.cos(DOWN), -_SIN_DOWN)  # angle pi + DOWN
DEFAULT_BUDGET = 1_000_000  # chain nodes one surface may expand


class UnfoldingBudgetError(RuntimeError):
    """The chain frontier exceeded the node budget; L is too large for the mesh."""


@dataclass(frozen=True)
class SaddleConnection:
    """Oriented flat geodesic between cone points.

    holonomy       complex displacement, one representative per +- pair
    start_zero     vertex id of the initial cone point
    end_zero       vertex id of the final cone point
    segment_chain  (triangle, entry edge) records of the crossed triangles,
                   or None when chains were not requested
    class_vector   integral homology class in the chart parameter basis,
                   or None when the surface carries no chart coordinates
    """

    holonomy: complex
    start_zero: int
    end_zero: int
    segment_chain: tuple[tuple[int, int], ...] | None = None
    class_vector: tuple[int, ...] | None = None

    @property
    def length(self) -> float:
        return abs(self.holonomy)


class UnfoldedBatch(NamedTuple):
    """Saddle connections of a batch of surfaces, as flat arrays.

    The connections of surface s are rows ``offsets[s]:offsets[s + 1]``,
    in the canonical order of :func:`enumerate_saddle_connections`.

    holonomy    complex displacement of each connection
    length      its absolute value
    start_zero  vertex id of the initial cone point
    end_zero    vertex id of the final cone point
    classes     (n, D) int64 homology classes; a surface with class rows
                of length d < D uses the first d columns, and a surface
                without chart coordinates has rows of 0
    dims        per surface, its class length, or None without coordinates
    chains      per connection its (triangle, entry edge) records, or None
                when chains were not requested
    nodes       per surface, the chain nodes expanded
    """

    offsets: np.ndarray
    holonomy: np.ndarray
    length: np.ndarray
    start_zero: np.ndarray
    end_zero: np.ndarray
    classes: np.ndarray
    dims: tuple
    chains: list | None
    nodes: np.ndarray

    def connections(self, s: int) -> list[SaddleConnection]:
        """The connections of surface ``s`` as :class:`SaddleConnection`."""
        a, b = int(self.offsets[s]), int(self.offsets[s + 1])
        dim = self.dims[s]
        classes = (None,) * (b - a) if dim is None else map(
            tuple, self.classes[a:b, :dim].tolist())
        chains = (None,) * (b - a) if self.chains is None else self.chains[a:b]
        return [SaddleConnection(h, v0, v1, ch, cl) for h, v0, v1, ch, cl in zip(
            self.holonomy[a:b].tolist(), self.start_zero[a:b].tolist(),
            self.end_zero[a:b].tolist(), chains, classes)]


def enumerate_saddle_connections(
    surface: TranslationSurface,
    length_bound: float,
    budget: int = DEFAULT_BUDGET,
    record_chains: bool = False,
    keep_orientations: bool = False,
):
    """All saddle connections of length at most ``length_bound``.

    Returns one representative per unordered +- pair (holonomy in the upper
    half plane, or positive real), unless ``keep_orientations`` is set.
    Without it, only directions in the kept half plane (down to ``DOWN``
    below the real axis) are searched.  Distinct homologous connections
    with equal holonomy are reported separately.  Raises
    :class:`UnfoldingBudgetError` when the search expands more than
    ``budget`` chain nodes; with the half-plane clip, that counts the nodes
    of the clipped search.  This is :func:`unfold_surfaces` on one surface.
    """
    return unfold_surfaces([surface], length_bound, budget, record_chains,
                           keep_orientations).connections(0)


def unfold_surfaces(surfaces, length_bound: float, budget: int = DEFAULT_BUDGET,
                    record_chains: bool = False,
                    keep_orientations: bool = False) -> UnfoldedBatch:
    """:func:`enumerate_saddle_connections` of every surface in one search.

    ``surfaces`` is a :class:`~flatscale.surface.SurfaceBatch`, or a
    sequence of :class:`TranslationSurface`, which is made into one.  Each
    surface gets exactly the connections, in the order, that it gets
    alone.  Raises :class:`UnfoldingBudgetError` when some surface expands
    more than ``budget`` chain nodes, and ``ValueError`` when a class
    coefficient times ``budget + 2`` (the most rows a developed class sums)
    could leave int64.
    """
    if length_bound <= 0:
        raise ValueError("length bound must be positive")
    if not isinstance(surfaces, SurfaceBatch):
        surfaces = SurfaceBatch.of(surfaces)
    cmax = max((t.coeff_max for t in surfaces.tables), default=0)
    rows = max(budget, 0) + 2
    if cmax * rows >= INT64_LIMIT:
        raise ValueError(
            f"class coefficients up to {cmax} times budget + 2 = {rows} "
            f"reach {cmax * rows}, beyond int64 (2**63); lower the budget")
    b = _Batch(surfaces.edges, surfaces.tables, surfaces.kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = [] if record_chains else None
        found, nodes = _search(b, length_bound * length_bound, budget,
                               not keep_orientations, levels)
        return _canonical(b, found, nodes, levels, keep_orientations)


class _Batch:
    """Edges and tables of a batch, flat over global half-edges h = 3 t + e
    (t counts the triangles of all surfaces, in batch order).  Vectors are
    stored component first: ``edge`` is (2, H) and ``coeffs`` (D, H).

    ``edges`` (H,) are the edge vectors, ``tables`` the distinct
    ``_SurfaceTables`` of the batch, whose arrays are read as they are,
    and ``kind`` (n,) the index of each surface's tables; every table is
    gathered onto the half-edges of its surfaces at once.
    """

    def __init__(self, edges, tables, kind):
        n = len(kind)
        size = np.asarray([t.neighbor.size for t in tables], np.int64)
        n_he = size[kind]
        start = np.zeros(n + 1, np.int64)
        np.cumsum(n_he, out=start[1:])
        h = int(start[-1])
        first = np.zeros(len(tables), np.int64)
        np.cumsum(size[:-1], out=first[1:])
        self.n, self.start = n, start
        dims = [t.dim for t in tables]
        self.dims = ((dims[0],) * n if len(set(dims)) == 1
                     else tuple(dims[k] for k in kind.tolist()))
        self.surf = np.repeat(np.arange(n), n_he)
        # where each global half-edge sits in the concatenated tables
        src = (first[kind] - start[:-1]).repeat(n_he) + np.arange(h)
        self.edge = np.stack([edges.real, edges.imag])
        self.nbr = _cat([t.neighbor for t in tables])[src] + start[self.surf]
        self.vert = _cat([t.corner_vertex for t in tables])[src]
        d = max((t.dim or 0 for t in tables), default=0)
        coeffs = np.zeros((int(size.sum()), d), np.int64)
        for t, a in zip(tables, first.tolist()):
            if t.dim:
                coeffs[a:a + t.neighbor.size, :t.dim] = t.coeffs
        self.coeffs = np.ascontiguousarray(coeffs[src].T)
        he = np.arange(h)
        self.nxt = he + np.tile([1, 1, -2], h // 3)
        self.prv = he + np.tile([2, -1, -1], h // 3)


def _cat(arrays) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, np.int64)


def _norm2(v):
    """x * x + y * y of each vector, for v = (x, y) stacked on axis 0."""
    v = v * v
    return v[0] + v[1]


def _seg_dist2(a, b):
    """Squared distance from the origin to each segment [a, b]; points are
    stacked (x, y) on axis 0.

    The foot of the perpendicular is a + s (b - a), s = -a.(b - a) /
    |b - a|^2 clamped to [0, 1], computed with n = a - b = -(b - a), which
    is exact.  For a segment of zero length s is 0 / 0; fmax and fmin take
    that nan to 0, so the distance is |a|.
    """
    n = a - b
    an = a * n
    s = (an[0] + an[1]) / _norm2(n)
    s = np.fmin(np.fmax(s, 0.0), 1.0)
    return _norm2(a - s * n)


def _search(b: _Batch, L2: float, budget: int, clip: bool, levels):
    """The level-synchronous search.  Returns the emitted connections in
    per-corner search order (root corner, holonomy (2, n), end vertex,
    class (D, n), level, node index in that level) and the nodes expanded
    per surface.  Appends each level's entry half-edges and parent indices
    to ``levels`` unless it is None.

    Node vectors are stored component first, so every step works on
    contiguous rows, and a level's children are laid out (node, child)
    along the last axis, which keeps them in parent order.
    """
    edge, nbr, coeffs, vert = b.edge, b.nbr, b.coeffs, b.vert

    # The outgoing edge at each corner is itself a geodesic to the next
    # cone point; it is the closed low boundary of the corner's wedge.
    ea = edge
    eb = -edge[:, b.prv]
    la2 = _norm2(ea)
    own = np.flatnonzero(la2 <= L2)
    emits = [(own, ea[:, own], vert[b.nxt[own]], coeffs[:, own],
              np.full(own.size, -1), np.full(own.size, -1))]

    # Continue through the far edge with both boundaries open.
    lo = ea / np.sqrt(la2)
    hi = eb / np.hypot(eb[0], eb[1])
    ok = ~(lo[0] * hi[1] - lo[1] * hi[0] <= WEDGE_EPS)
    if clip:
        # A corner wedge spans less than pi, so it meets the kept arc
        # [-DOWN, pi + DOWN] in one sub-wedge, or not at all when both
        # boundaries lie below it.
        lo_below = lo[1] < -_SIN_DOWN
        hi_below = hi[1] < -_SIN_DOWN
        ok &= ~(lo_below & hi_below)
        lo[:, lo_below] = [[_BELOW_POS.real], [_BELOW_POS.imag]]
        hi[:, hi_below & ~lo_below] = [[_BELOW_NEG.real], [_BELOW_NEG.imag]]
    ok &= ~(_seg_dist2(ea, eb) > L2)
    root = np.flatnonzero(ok)

    # Node state.  f: the positions of corners e (pa) and e+1 (pb) of the
    # entry edge, then the wedge as lo.x, hi.y, lo.y, hi.x, so that one
    # product gives both boundary crosses; k: the classes of pa, then pb;
    # he: the entry half-edge.
    f = np.concatenate([eb[:, root], ea[:, root], lo[:1, root], hi[1:, root],
                        lo[1:, root], hi[:1, root]])
    k = np.concatenate([-coeffs[:, b.prv[root]], coeffs[:, root]])
    he = nbr[b.nxt[root]]
    dim = coeffs.shape[0]
    del eb, la2, lo, hi, ok
    # Per entry half-edge: the edge vector and class of edge e+1, the end
    # vertex of an apex emit, and the entries of the two children.  The
    # level loop gathers with take, which costs much less per call than
    # fancy indexing on small arrays; the tables are made by take too, so
    # they are C-contiguous and a take along axis 1 does not copy them.
    apex_edge = edge.take(b.nxt, 1)
    apex_class = coeffs.take(b.nxt, 1)
    apex_vert = vert[b.prv]
    kids = np.stack([nbr[b.nxt], nbr[b.prv]], axis=1)

    nodes = np.zeros(b.n, np.int64)
    parent = None
    level = 0
    while root.size:
        if levels is not None:
            levels.append((he, parent))
        nodes += np.bincount(b.surf.take(root), minlength=b.n)
        if nodes.max() > budget:
            raise UnfoldingBudgetError(
                f"unfolding exceeded budget of {budget} nodes "
                f"(surface {int(nodes.argmax())} of the batch)")

        n = root.size
        apex = f[2:4] + apex_edge.take(he, 1)
        capex = k[dim:] + apex_class.take(he, 1)
        r2 = _norm2(apex)
        rm = np.sqrt(r2)
        cross = f[4:6] * apex[::-1] - f[6:8] * apex  # (cl, ch)
        inside = cross > WEDGE_EPS * rm
        interior = inside[0] & inside[1]
        hit = np.flatnonzero(interior & (r2 <= L2))
        if hit.size:
            emits.append((root.take(hit), apex.take(hit, 1),
                          apex_vert.take(he.take(hit)), capex.take(hit, 1),
                          np.full(hit.size, level), hit))

        # Child 0 crosses edge e+1, from pb to the apex; child 1 crosses edge
        # e+2, from the apex to pa.  The wedge is split at the apex direction
        # with open boundaries: child 0 keeps (lo, apex), child 1
        # (apex, hi).  With the apex at or before lo only child 1 goes on,
        # with (lo, hi); at or beyond hi only child 0.
        ap = apex / rm
        g = f.repeat(2, axis=1).reshape(8, n, 2)
        g[0:2, :, 0] = apex
        g[2:4, :, 1] = apex
        np.copyto(g[5::2, :, 0], ap[::-1], where=interior)
        np.copyto(g[4::2, :, 1], ap, where=interior)
        keep = inside.T.copy()
        keep[:, 1] |= ~inside[0]
        keep &= _seg_dist2(g[2:4], g[0:2]) <= L2
        wedge = g[4::2] * g[5::2]
        keep &= wedge[0] - wedge[1] > WEDGE_EPS
        sel = np.flatnonzero(keep)
        parent = sel >> 1

        gk = k.repeat(2, axis=1).reshape(2 * dim, n, 2)
        gk[:dim, :, 0] = capex
        gk[dim:, :, 1] = capex
        f = g.reshape(8, 2 * n).take(sel, 1)
        k = gk.reshape(2 * dim, 2 * n).take(sel, 1)
        he = kids.take(he, 0).reshape(2 * n).take(sel)
        root = root.take(parent)
        level += 1

    root, hol, end, cls, level, node = zip(*emits)
    cat = np.concatenate
    found = [cat(root), cat(hol, axis=1).T, cat(end), cat(cls, axis=1).T,
             cat(level), cat(node)]
    return found, nodes


def _canonical(b: _Batch, found, nodes, levels,
               keep_orientations: bool) -> UnfoldedBatch:
    """Orientation filter and stable canonical sort, per surface."""
    order = np.argsort(found[0], kind="stable")  # per corner, search order
    root, hol, end, cls, level, node = (col[order] for col in found)
    m = np.hypot(hol[:, 0], hol[:, 1])
    idx = np.flatnonzero(m != 0.0)

    if not keep_orientations:
        x, y, tol = hol[idx, 0], hol[idx, 1], PAIR_EPS * m[idx]
        idx = idx[~((y < -tol) | ((np.abs(y) <= tol) & (x < 0)))]

    # Stable sort on (length, angle, start zero, end zero) per surface.  The
    # angle is math.atan2 (numpy's may differ in the last bit), needed only
    # where lengths tie.
    surf, length = b.surf[root[idx]], m[idx]
    start_zero, end_zero = b.vert[root[idx]], end[idx]
    p = np.lexsort((length, surf))
    tie = (surf[p[1:]] == surf[p[:-1]]) & (length[p[1:]] == length[p[:-1]])
    angle = np.zeros(idx.size)
    if tie.any():
        t = np.zeros(idx.size, bool)
        t[p[1:][tie]] = t[p[:-1][tie]] = True
        angle[t] = list(map(math.atan2, hol[idx[t], 1].tolist(),
                            hol[idx[t], 0].tolist()))
    p = np.lexsort((end_zero, start_zero, angle, length, surf))
    idx = idx[p]
    chains = None
    if levels is not None:
        chains = _chains(b, root[idx], level[idx], node[idx], levels)
    return UnfoldedBatch(
        offsets=np.searchsorted(surf[p], np.arange(b.n + 1)),
        holonomy=np.ascontiguousarray(hol[idx]).view(complex).reshape(-1),
        length=length[p], start_zero=start_zero[p], end_zero=end_zero[p],
        classes=cls[idx], dims=b.dims, chains=chains, nodes=nodes)


def _chains(b: _Batch, root, level, node, levels):
    """(triangle, entry edge) records from each connection's root corner
    down its parent links, triangles numbered within their surface."""
    h = np.arange(b.surf.size)
    records = list(zip((h // 3 - b.start[b.surf] // 3).tolist(),
                       (h % 3).tolist()))
    he = [x.tolist() for x, _ in levels]
    parent = [None if x is None else x.tolist() for _, x in levels]
    out = []
    for r, lv, j in zip(root.tolist(), level.tolist(), node.tolist()):
        path = []
        while lv >= 0:
            path.append(records[he[lv][j]])
            if lv:
                j = parent[lv][j]
            lv -= 1
        out.append((records[r],) + tuple(reversed(path)))
    return out


def primitive_lattice_vectors(length_bound: float):
    """Primitive integer vectors (p, q) with 0 < p^2+q^2 <= L^2, both signs.

    Independent oracle for the square torus: its saddle connections are
    exactly the primitive lattice vectors.
    """
    out = []
    n = int(math.floor(length_bound))
    L2 = length_bound * length_bound
    for p in range(-n, n + 1):
        for q in range(-n, n + 1):
            if p == 0 and q == 0:
                continue
            if p * p + q * q > L2:
                continue
            if math.gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    return out
