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

Only one orientation of each +- pair is returned, the canonical one
(holonomy in the upper half plane, or positive real), so the search covers
only the kept half plane: every corner wedge is clipped to the directions
from DOWN below the positive real axis to DOWN below the negative one
before it is developed.  DOWN is far above the wedge and pairing
tolerances, so everything the clip cuts away lies in the discarded half
plane.  There is one search mode and one output: the canonical
connections, with their lengths, zeros and classes.  The unclipped search
and the crossed-triangle chains of each connection live only in the
scalar reference, ``tests/scalar_unfolding.py``.

:func:`unfold_surfaces` searches a whole batch of surfaces at once, one
level of chain depth per step.  It reads the flat half-edge arrays of a
:class:`~flatscale.surface.SurfaceBatch` (edge vectors, global neighbours,
corner vertices, chart rows) as they are.  The frontier of every corner of
every surface lives in flat arrays too: root corner, entry half-edge, the two
developed corner positions, the int64 class of the second (an apex's class
is that plus the row of the edge from it to the apex), the wedge, and the
squared length bound of the node's surface, since each surface may have
its own bound; it moves with the node state, so it costs no gather.  A
step expands a whole level and lays out each node's children in parent
order, the child through edge e+1 before the child through edge e+2, so
each corner's nodes come out in breadth-first order.  The float arithmetic is
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

from .checks import integer
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

    holonomy      complex displacement, the canonical one of its +- pair
    start_zero    vertex id of the initial cone point
    end_zero      vertex id of the final cone point
    class_vector  integral homology class in the chart parameter basis,
                  or None when the surface carries no chart coordinates
    """

    holonomy: complex
    start_zero: int
    end_zero: int
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
    nodes       per surface, the chain nodes expanded
    """

    offsets: np.ndarray
    holonomy: np.ndarray
    length: np.ndarray
    start_zero: np.ndarray
    end_zero: np.ndarray
    classes: np.ndarray
    dims: tuple
    nodes: np.ndarray

    def connections(self, s: int) -> list[SaddleConnection]:
        """The connections of surface ``s`` as :class:`SaddleConnection`."""
        a, b = int(self.offsets[s]), int(self.offsets[s + 1])
        dim = self.dims[s]
        classes = (None,) * (b - a) if dim is None else map(
            tuple, self.classes[a:b, :dim].tolist())
        return [SaddleConnection(h, v0, v1, cl) for h, v0, v1, cl in zip(
            self.holonomy[a:b].tolist(), self.start_zero[a:b].tolist(),
            self.end_zero[a:b].tolist(), classes)]


def enumerate_saddle_connections(
    surface: TranslationSurface,
    length_bound: float,
    budget: int = DEFAULT_BUDGET,
):
    """All saddle connections of length at most ``length_bound``, in
    canonical order.

    Returns one representative per unordered +- pair (holonomy in the upper
    half plane, or positive real); only directions in that half plane (down
    to ``DOWN`` below the real axis) are searched.  Distinct homologous
    connections with equal holonomy are reported separately.  Raises
    :class:`UnfoldingBudgetError` when the search expands more than
    ``budget`` chain nodes.  This is :func:`unfold_surfaces` on one surface.
    """
    return unfold_surfaces([surface], length_bound, budget).connections(0)


def unfold_surfaces(surfaces, length_bound,
                    budget: int = DEFAULT_BUDGET) -> UnfoldedBatch:
    """:func:`enumerate_saddle_connections` of every surface in one search.

    ``surfaces`` is a :class:`~flatscale.surface.SurfaceBatch`, or a
    sequence of :class:`TranslationSurface`, which is made into one.
    ``length_bound`` is one bound for every surface, or an (n,) array with
    one bound per surface.  Each surface gets exactly the connections, in
    the order, and the nodes that it gets alone with its own bound as the
    scalar bound.  Raises :class:`UnfoldingBudgetError` when some surface
    expands more than ``budget`` chain nodes, and ``ValueError`` when a
    class coefficient times ``budget + 2`` (the most rows a developed class
    sums) could leave int64, when ``length_bound`` has another shape or a
    bound that is not finite and positive (nan would find nothing and inf
    would run into the budget), or when ``budget`` is not an integer (a
    bool is none) or is negative.
    """
    if not isinstance(surfaces, SurfaceBatch):
        surfaces = SurfaceBatch.of(surfaces)
    try:
        bound = np.asarray(length_bound)
        real = (bound.dtype.kind in "iuf"
                and bound.shape in ((), (len(surfaces),)))
    except ValueError:  # a ragged sequence
        real = False
    if not real:
        raise ValueError(f"length_bound must be a real number or one per "
                         f"surface ({len(surfaces)}), got {length_bound!r}")
    bound = bound.astype(float)
    if not (np.isfinite(bound) & (bound > 0)).all():
        raise ValueError(f"length_bound must be finite and positive, "
                         f"got {length_bound!r}")
    if integer(budget, "budget") < 0:
        raise ValueError(f"budget must not be negative, got {budget!r}")
    cmax = surfaces.coeff_max
    rows = budget + 2
    if cmax * rows >= INT64_LIMIT:
        raise ValueError(
            f"class coefficients up to {cmax} times budget + 2 = {rows} "
            f"reach {cmax * rows}, beyond int64 (2**63); lower the budget")
    with np.errstate(divide="ignore", invalid="ignore"):
        L2 = np.broadcast_to(bound * bound, (len(surfaces),))
        found, nodes = _search(surfaces, L2, budget)
        return _canonical(surfaces, found, nodes)


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


def _twice(a):
    """(rows, n, 2): each row of ``a`` (rows, n) with every entry twice in a
    row, as ``a.repeat(2, axis=1)``, which is slower on wide levels."""
    out = np.empty(a.shape + (2,), a.dtype)
    out[..., 0] = a
    out[..., 1] = a
    return out


def _search(b: SurfaceBatch, L2: np.ndarray, budget: int):
    """The level-synchronous search, surface s to the squared bound L2[s],
    in the kept half plane.  Returns the emitted connections in per-corner
    search order (root corner, holonomy (2, n), end vertex, class (D, n))
    and the nodes expanded per surface.

    The set-up filters first.  Every corner emits its outgoing edge when
    that is within reach, but a corner starts a chain only when the far
    edge of its triangle comes within the bound (a test on the two edge
    vectors alone), so the wedge boundaries, the clip to the kept arc and
    the wedge-width test are computed only on the corners that pass it.
    A node never leaves its root's surface, so the per-half-edge tables
    that the levels read are filled only on the half-edges of surfaces
    with a root; the rest of each table is left unwritten.  Each
    predicate is elementwise, so the roots are those that testing every
    corner gives.

    Node vectors are stored component first, so every step works on
    contiguous rows, and a level's children are laid out (node, child)
    along the last axis, which keeps them in parent order.  A level costs
    some fixed numpy calls whatever its width, and most levels are narrow,
    so the loop makes few: the int node state is one array of D + 2 rows
    (the class of the entry edge's second corner, the entry half-edge, the
    root corner), taken once per level, and the nodes are counted per
    surface lazily.  Until the batch total passes ``budget`` no surface
    can, so one ``bincount`` at the end counts them; from then on every
    level is counted and checked, so the budget error comes at the level,
    and names the surface, that counting every level gives.
    """
    edge, nbr, coeffs, vert = b.edge, b.neighbor, b.coeffs, b.corner_vertex
    h = np.arange(nbr.size)
    nxt = h + np.tile([1, 1, -2], h.size // 3)
    prv = h + np.tile([2, -1, -1], h.size // 3)

    # The outgoing edge at each corner is itself a geodesic to the next
    # cone point; it is the closed low boundary of the corner's wedge.
    ea = edge
    eb = -edge.take(prv, 1)
    la2 = _norm2(ea)
    L2 = L2.take(b.surf)  # each corner's squared bound
    own = (la2 <= L2).nonzero()[0]
    emits = [(own, ea[:, own], vert[nxt[own]], coeffs[:, own])]

    # Continue through the far edge with both boundaries open, from the
    # corners whose far edge lies within reach; only those get a wedge.
    near = (~(_seg_dist2(ea, eb) > L2)).nonzero()[0]
    ea, eb = ea.take(near, 1), eb.take(near, 1)
    lo = ea / np.sqrt(la2.take(near))
    hi = eb / np.hypot(eb[0], eb[1])
    ok = ~(lo[0] * hi[1] - lo[1] * hi[0] <= WEDGE_EPS)
    # A corner wedge spans less than pi, so it meets the kept arc
    # [-DOWN, pi + DOWN] in one sub-wedge, or not at all when both
    # boundaries lie below it.
    lo_below = lo[1] < -_SIN_DOWN
    hi_below = hi[1] < -_SIN_DOWN
    ok &= ~(lo_below & hi_below)
    lo[:, lo_below] = [[_BELOW_POS.real], [_BELOW_POS.imag]]
    hi[:, hi_below & ~lo_below] = [[_BELOW_NEG.real], [_BELOW_NEG.imag]]
    keep = ok.nonzero()[0]
    root = near.take(keep)

    # Node state.  f: the positions of corners e (pa) and e+1 (pb) of the
    # entry edge, then the wedge as lo.x, hi.y, lo.y, hi.x, so that one
    # product gives both boundary crosses, then the squared bound of the
    # node's surface, which the take that moves f moves too.  q, int64:
    # the class of pb, then the entry half-edge and the root corner, so
    # that one take carries all of them to the next level.
    dim = coeffs.shape[0]
    he_row, root_row = dim, dim + 1
    f = np.concatenate([eb, ea, lo[:1], hi[1:], lo[1:], hi[:1],
                        L2.take(near)[None]]).take(keep, 1)
    q = np.concatenate([coeffs[:, root], nbr[nxt[root]][None], root[None]])
    # Per entry half-edge: the edge vector and class of edge e+1, the end
    # vertex of an apex emit, and the entries of the two children, written
    # on the half-edges of rooted surfaces only.  The level loop gathers
    # with take, which costs much less per call than fancy indexing on small
    # arrays; the tables are C-contiguous, so a take along axis 1 does not
    # copy them.
    rooted = np.zeros(len(b), bool)
    rooted[b.surf.take(root)] = True
    he = rooted.take(b.surf).nonzero()[0]
    he_nxt, he_prv = nxt.take(he), prv.take(he)
    apex_edge = np.empty(edge.shape)
    apex_edge[:, he] = edge.take(he_nxt, 1)
    apex_class = np.empty(coeffs.shape, np.int64)
    apex_class[:, he] = coeffs.take(he_nxt, 1)
    apex_vert = np.empty(vert.shape, vert.dtype)
    apex_vert[he] = vert.take(he_prv)
    kids = np.empty((nbr.size, 2), nbr.dtype)
    kids[he, 0] = nbr.take(he_nxt)
    kids[he, 1] = nbr.take(he_prv)
    del ea, eb, la2, lo, hi, ok, keep, near, root, L2, rooted

    n_surf = len(b)
    nodes = np.zeros(n_surf, np.int64)
    uncounted, total = [], 0
    while n := q.shape[1]:
        he, root = q[he_row], q[root_row]
        uncounted.append(b.surf.take(root))
        total += n
        if total > budget:
            nodes += np.bincount(np.concatenate(uncounted), minlength=n_surf)
            uncounted = []
            if nodes.max() > budget:
                raise UnfoldingBudgetError(
                    f"unfolding exceeded budget of {budget} nodes "
                    f"(surface {int(nodes.argmax())} of the batch)")

        apex = f[2:4] + apex_edge.take(he, 1)
        capex = q[:dim] + apex_class.take(he, 1)
        r2 = _norm2(apex)
        rm = np.sqrt(r2)
        cross = f[4:6] * apex[::-1] - f[6:8] * apex  # (cl, ch)
        inside = cross > WEDGE_EPS * rm
        interior = inside[0] & inside[1]
        hit = (interior & (r2 <= f[8])).nonzero()[0]
        if hit.size:
            emits.append((root.take(hit), apex.take(hit, 1),
                          apex_vert.take(he.take(hit)), capex.take(hit, 1)))

        # Child 0 crosses edge e+1, from pb to the apex, and keeps pb and its
        # class; child 1 crosses edge e+2, from the apex to pa, whose pb is
        # the apex.  The wedge is split at the apex direction with open
        # boundaries: child 0 keeps (lo, apex), child 1 (apex, hi).  With the
        # apex at or before lo only child 1 goes on, with (lo, hi); at or
        # beyond hi only child 0.
        ap = apex / rm
        g = _twice(f)
        g[0:2, :, 0] = apex
        g[2:4, :, 1] = apex
        np.copyto(g[5:8:2, :, 0], ap[::-1], where=interior)
        np.copyto(g[4:8:2, :, 1], ap, where=interior)
        keep = inside.T.copy()
        keep[:, 1] |= ~inside[0]
        keep &= _seg_dist2(g[2:4], g[0:2]) <= g[8]
        wedge = g[4:8:2] * g[5:8:2]
        keep &= wedge[0] - wedge[1] > WEDGE_EPS
        sel = keep.reshape(2 * n).nonzero()[0]

        gq = _twice(q)
        gq[:dim, :, 1] = capex
        gq[he_row] = kids.take(he, 0)
        f = g.reshape(9, 2 * n).take(sel, 1)
        q = gq.reshape(root_row + 1, 2 * n).take(sel, 1)
    if uncounted:
        nodes += np.bincount(np.concatenate(uncounted), minlength=n_surf)

    root, hol, end, cls = zip(*emits)
    cat = np.concatenate
    found = [cat(root), cat(hol, axis=1).T, cat(end), cat(cls, axis=1).T]
    return found, nodes


def kept_orientation(x, y, length) -> np.ndarray:
    """Which of the holonomies (x, y), of nonzero ``length`` = hypot(x, y),
    are the canonical ones of their +- pairs: in the upper half plane, or
    within ``PAIR_EPS`` of the real axis and pointing right.  The search
    keeps a connection found from each end by this test."""
    tol = PAIR_EPS * length
    return ~((y < -tol) | ((np.abs(y) <= tol) & (x < 0)))


def _canonical(b: SurfaceBatch, found, nodes) -> UnfoldedBatch:
    """Orientation filter and stable canonical sort, per surface."""
    order = np.argsort(found[0], kind="stable")  # per corner, search order
    root, hol, end, cls = (col[order] for col in found)
    m = np.hypot(hol[:, 0], hol[:, 1])
    idx = np.flatnonzero(m != 0.0)
    idx = idx[kept_orientation(hol[idx, 0], hol[idx, 1], m[idx])]

    # Stable sort on (length, angle, start zero, end zero) per surface.  The
    # angle is math.atan2 (numpy's may differ in the last bit), needed only
    # where lengths tie.
    surf, length = b.surf[root[idx]], m[idx]
    start_zero, end_zero = b.corner_vertex[root[idx]], end[idx]
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
    return UnfoldedBatch(
        offsets=np.searchsorted(surf[p], np.arange(len(b) + 1)),
        holonomy=np.ascontiguousarray(hol[idx]).view(complex).reshape(-1),
        length=length[p], start_zero=start_zero[p], end_zero=end_zero[p],
        classes=cls[idx], dims=b.dims, nodes=nodes)
