"""Triangulated flat surfaces with complex edge holonomies.

A surface is a collection of positively oriented triangles, each carrying
three complex edge vectors that sum to zero, together with an involutive
gluing that pairs triangle edges carrying opposite vectors.  Cone points
arise from the vertex identifications; a vertex of total angle 2*pi*(m+1)
is a zero of order m (m = 0 is a regular marked point).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import integer

TWO_PI = 2.0 * math.pi

# Relative tolerances for the metric validation checks.
TOL_CLOSURE = 1e-9
TOL_GLUING = 1e-9
TOL_ANGLE = 1e-7
TOL_SIMPLE = 1e-12  # of the polygon simplicity test
INT64_LIMIT = 2**63  # |c| of every chart coefficient and class stays below it
DELAUNAY_ROUNDS = 64  # a bound on the twist-and-flip rounds of SurfaceBatch.delaunay
DELAUNAY_TOL = 1e-9  # an edge is flipped when cot(alpha) + cot(beta) < -DELAUNAY_TOL


class SurfaceError(ValueError):
    pass


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


@dataclass(frozen=True)
class StratumSignature:
    """Multiset of zero orders; order 0 marks a regular marked point.  Each
    order is an integer, not a bool (``checks.integer``); a ``ValueError``
    names ``zero_orders`` otherwise."""

    zero_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(integer(m, "zero_orders") for m in self.zero_orders)
        object.__setattr__(self, "zero_orders", orders)
        if any(m < 0 for m in orders):
            raise SurfaceError("zero orders must be nonnegative")
        if sum(orders) % 2 != 0:
            raise SurfaceError("zero orders must sum to an even number")

    @property
    def genus(self) -> int:
        return (sum(self.zero_orders) + 2) // 2

    @property
    def dimension(self) -> int:
        """Complex dimension of the ambient period-coordinate space."""
        return 2 * self.genus + len(self.zero_orders) - 1


@dataclass(frozen=True)
class ValidationReport:
    """What a validation found: one message per fault, none when valid."""

    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self):
        return "\n".join(self.errors) if self.errors else "valid"


class TranslationSurface:
    """Immutable triangulated translation surface.

    Parameters
    ----------
    triangles : sequence of 3 complex edge vectors per triangle.  Edge k of a
        triangle runs from corner k to corner k+1 (mod 3); positively
        oriented triangles have cross(e0, e1) > 0.
    gluings : dict mapping (tri, edge) -> (tri, edge).  Must be a fixed-point
        free involution on all the edges; glued edges carry opposite vectors.
    edge_coords : optional integer array of shape (n_tri, 3, d), entries
        |c| < 2**63, giving each edge vector in the d chart parameters.
        Enables exact homology classes for enumerated saddle connections.

    The constructor checks the gluing and the coordinates, raising
    :class:`SurfaceError` on the first fault; :meth:`validate` checks the
    metric.  The edge vectors are kept as one read-only (n_tri, 3) complex
    array, the combinatorics as shared :class:`_SurfaceTables`.
    """

    def __init__(self, triangles, gluings, edge_coords=None):
        try:
            edges = np.array(triangles, dtype=complex)
        except ValueError:
            edges = None
        if edges is None or edges.ndim != 2 or edges.shape[1] != 3:
            raise SurfaceError("each triangle needs exactly 3 edges")
        edges.setflags(write=False)
        self._edges = edges
        self._tables = _surface_tables(len(edges), gluings, edge_coords)

    @classmethod
    def _from_tables(cls, edges, tables: "_SurfaceTables") -> "TranslationSurface":
        """Surface from a (n_tri, 3) complex edge array and precomputed,
        shared combinatorial tables; nothing is checked or copied."""
        self = cls.__new__(cls)
        self._edges = edges
        self._tables = tables
        return self

    # -- basic geometry --------------------------------------------------------

    @property
    def n_triangles(self) -> int:
        return len(self._edges)

    def edge(self, t: int, e: int) -> complex:
        return complex(self._edges[t, e])

    def edge_coeff(self, t: int, e: int):
        coeffs = self._tables.coeffs
        return None if coeffs is None else tuple(coeffs[3 * t + e].tolist())

    @property
    def has_coords(self) -> bool:
        return self._tables.coeffs is not None

    @property
    def gluings(self) -> dict[tuple[int, int], tuple[int, int]]:
        return {divmod(h, 3): divmod(g, 3)
                for h, g in enumerate(self._tables.neighbor.tolist())}

    @property
    def n_vertices(self) -> int:
        return self._tables.n_vertices

    def vertex_angles(self) -> list[float]:
        """Total angle at each vertex: the sum of its corner angles, corner
        k of a triangle lying between edge k and the reverse of edge k-1."""
        a = self._edges
        b = -np.roll(a, 1, axis=1)
        corner = np.arctan2(_cross(a, b), _dot(a, b)) % TWO_PI
        return np.bincount(self._tables.corner_vertex, corner.reshape(-1),
                           self.n_vertices).tolist()

    def vertex_orders(self) -> list[int]:
        """Cone angle of vertex v is 2*pi*(order+1)."""
        return [int(round(a / TWO_PI)) - 1 for a in self.vertex_angles()]

    def area(self) -> float:
        e = self._edges
        return sum((0.5 * _cross(e[:, 0], e[:, 1])).tolist())

    def scale(self) -> float:
        return float(np.abs(self._edges).max())

    def rescaled(self, s: float) -> "TranslationSurface":
        """Surface with every edge vector multiplied by s > 0.

        Chart coordinates are kept: homology classes are scale invariant.
        """
        return TranslationSurface._from_tables(s * self._edges, self._tables)

    def mapped(self, m) -> "TranslationSurface":
        """Apply a real-linear map (2x2 matrix acting on R^2) to all edges.

        The map must be finite with det(m) > 0, so that triangles stay
        positively oriented.  Chart coordinates are kept: a linear map
        leaves the combinatorics and the homology classes unchanged.
        """
        m = np.asarray(m, dtype=float)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not (np.isfinite(m).all() and det > 0.0):
            raise SurfaceError(f"mapped needs a finite map with det > 0, got det {det}")
        x, y = self._edges.real, self._edges.imag
        edges = np.empty_like(self._edges)
        edges.real = m[0, 0] * x + m[0, 1] * y
        edges.imag = m[1, 0] * x + m[1, 1] * y
        return TranslationSurface._from_tables(edges, self._tables)

    # -- validation -------------------------------------------------------------

    def validate(self, sig: StratumSignature | None = None) -> ValidationReport:
        """Metric checks; the gluing was checked when the surface was built."""
        metric: list[str] = []
        s = self.scale()
        for t, (e0, e1, e2) in enumerate(self._edges.tolist()):
            if abs(e0 + e1 + e2) > TOL_CLOSURE * s:
                metric.append(f"triangle {t} edges do not close up")
            if _cross(e0, e1) <= 0:
                metric.append(f"triangle {t} is not positively oriented")
        edges, nbr = self._edges.reshape(-1).tolist(), self._tables.neighbor
        for h, g in enumerate(nbr.tolist()):
            if h < g and abs(edges[h] + edges[g]) > TOL_GLUING * s:
                metric.append(f"glued edges {divmod(h, 3)} and "
                              f"{divmod(g, 3)} are not opposite")
        if self.area() <= 0:
            metric.append("total area is not positive")

        if sig is not None and not metric:
            angles = self.vertex_angles()
            orders = []
            for v, a in enumerate(angles):
                m = round(a / TWO_PI) - 1
                if m < 0 or abs(a - TWO_PI * (m + 1)) > TOL_ANGLE:
                    metric.append(
                        f"vertex {v} has cone angle {a:.12g}, "
                        "not a positive multiple of 2*pi")
                else:
                    orders.append(m)
            if not metric and sorted(orders) != sorted(sig.zero_orders):
                metric.append(
                    f"vertex orders {sorted(orders)} do not match "
                    f"stratum {sorted(sig.zero_orders)}")
        return ValidationReport(tuple(metric))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> str:
        """The edges, the glued pairs, the chart rows (``edge_coords``, only
        when the surface has them) and the zero orders, as JSON."""
        data = {
            "triangles": [[[z.real, z.imag] for z in t]
                          for t in self._edges.tolist()],
            "gluings": [[list(divmod(h, 3)), list(divmod(g, 3))]
                        for h, g in enumerate(self._tables.neighbor.tolist())
                        if h < g],
        }
        if self.has_coords:
            data["edge_coords"] = self._tables.coeffs.reshape(
                self.n_triangles, 3, -1).tolist()
        data["zeros"] = {str(v): m for v, m in enumerate(self.vertex_orders())}
        return json.dumps(data, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "TranslationSurface":
        """Inverse of :meth:`to_json`; malformed text raises SurfaceError."""
        try:
            data = json.loads(text)
            tri = [[complex(re, im) for re, im in t] for t in data["triangles"]]
            gluings = {}
            for a, b in data["gluings"]:
                gluings[tuple(a)] = tuple(b)
                gluings[tuple(b)] = tuple(a)
        except (TypeError, ValueError, KeyError) as err:
            raise SurfaceError(f"malformed surface JSON: {err!r}") from None
        return cls(tri, gluings, data.get("edge_coords"))


@dataclass(frozen=True, eq=False)
class _SurfaceTables:
    """Combinatorics of a triangulated surface, independent of edge vectors,
    as read-only arrays over half-edges h = 3 t + e (edge e of triangle t).

    One instance is shared by every surface with the same triangulation;
    a :class:`SurfaceBatch` gathers the tables of its surfaces.

    neighbor       (3T,) the half-edge glued to h: the gluing, a fixed-point
                   free involution on all 3T half-edges
    corner_vertex  (3T,) vertex id of corner h, the start of edge h
    n_vertices     number of vertices
    coeffs         (3T, dim) int64 row of edge h in chart parameters, every
                   |c| < 2**63; None without rows
    dim            length of a row, or None without rows
    """

    neighbor: np.ndarray
    corner_vertex: np.ndarray
    n_vertices: int
    coeffs: np.ndarray | None
    dim: int | None


def _surface_tables(n_triangles: int, gluings, edge_coords=None) -> _SurfaceTables:
    """The tables of a surface of ``n_triangles`` triangles; raises
    :class:`SurfaceError` for a faulty gluing or faulty coordinates."""
    nbr = _check_gluings(n_triangles, gluings)

    # Corner k of a triangle is the start of edge k, and gluing h <-> g
    # makes the start of h the end of g, corner nxt(g): the vertices are the
    # cycles of h -> nxt(nbr[h]), numbered in the order of their least
    # corners, which pointer doubling finds.
    step = (np.arange(3 * n_triangles) + np.tile([1, 1, -2], n_triangles))[nbr]
    low = np.arange(3 * n_triangles)
    for _ in range((3 * n_triangles).bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    roots, vert = np.unique(low, return_inverse=True)

    coeffs, dim = None, None
    if edge_coords is not None:
        edge_coords = np.asarray(edge_coords, dtype=object)
        if edge_coords.ndim != 3 or edge_coords.shape[:2] != (n_triangles, 3):
            raise SurfaceError(f"edge_coords must have shape ({n_triangles}, 3, d)")
        dim = edge_coords.shape[2]
        ints = [_integer(x) for x in edge_coords.reshape(-1).tolist()]
        coeffs = np.array(ints, dtype=np.int64).reshape(3 * n_triangles, dim)
    for a in (nbr, vert, coeffs):
        if a is not None:
            a.setflags(write=False)
    return _SurfaceTables(nbr, vert, len(roots), coeffs, dim)


def _check_gluings(n_triangles: int, gluings) -> np.ndarray:
    """The half-edge glued to each half-edge h = 3 t + e, (3T,) int64.
    Raises :class:`SurfaceError` naming the first fault unless every key
    and partner of ``gluings`` is an edge, every edge has exactly one
    partner and the map is a fixed-point free involution."""
    items = list(dict(gluings).items())
    try:
        pairs = np.asarray(items or np.zeros((0, 2, 2), np.int64))
    except ValueError:
        pairs = np.zeros(0)
    if pairs.shape != (len(items), 2, 2) or pairs.dtype.kind not in "iu":
        raise SurfaceError("gluings must map (triangle, edge) integer pairs")
    t, e = pairs[..., 0], pairs[..., 1]
    bad = (t < 0) | (t >= n_triangles) | (e < 0) | (e > 2)
    if bad.any():
        g, side = np.argwhere(bad)[0]
        raise SurfaceError(f"gluing {items[g][0]} -> {items[g][1]} names "
                           f"missing edge {items[g][side]}")
    h = 3 * t + e
    nbr = np.full(3 * n_triangles, -1, dtype=np.int64)
    nbr[h[:, 0]] = h[:, 1]  # the keys are distinct: one partner at most
    he = np.arange(nbr.size)
    for fault, what in ((nbr < 0, "has no gluing partner"),
                        (nbr == he, "is glued to itself"),
                        (nbr[nbr] != he, "is not glued back: not an involution")):
        if fault.any():
            raise SurfaceError(f"edge {divmod(int(fault.argmax()), 3)} {what}")
    return nbr


def _integer(x) -> int:
    """``x`` as a Python int; raises :class:`SurfaceError` when it is NaN,
    infinite, fractional, not a number or does not fit int64."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != x or not -INT64_LIMIT < i < INT64_LIMIT:
        raise SurfaceError(f"coefficient {x!r} is not an integer with |c| < 2**63")
    return i


# -- polygon ingestion -----------------------------------------------------------


def shoelace_area(vertices):
    """Signed area of the polygon with vertices (m,), or of each polygon of
    a stack (..., m): one float, or an array of shape (...)."""
    v = np.asarray(vertices, dtype=complex)
    nxt = np.roll(v, -1, axis=-1)
    return 0.5 * (v.real * nxt.imag - v.imag * nxt.real).sum(axis=-1)


def ear_clip_batch(verts) -> tuple[np.ndarray, np.ndarray]:
    """Triangulate each row of ``verts`` (batch, m), complex, by ear clipping.

    Returns ``tris`` (batch, m - 2, 3), the triangles as triples of vertex
    indices in the order they are clipped, and ``ok`` (batch,), False for
    a row in which some step finds no ear (its triples are meaningless).
    A remaining corner b with neighbours a and c is an ear when its turn
    cross(b - a, c - b) exceeds eps and no other remaining vertex p has
    cross(b - a, p - a), cross(c - b, p - b) and cross(a - c, p - c) all
    >= -eps, where eps = 1e-12 * max |v|^2 per row.  Each step clips the
    first ear of every row, so every row gets the triangles a
    corner-by-corner scan of that row would give, from the same float
    predicates.

    The coordinates are held corners first, as real (m, batch) copies, so
    every test runs along whole rows.  A step tests corner 0 of every row,
    and the other corners only on the rows where corner 0 is not an ear
    (on a convex polygon, a reduced torus say, it nearly always is); a row
    with no ear clips corner 0.  The clipped corner leaves each row by one
    gather.
    """
    verts = np.atleast_2d(np.asarray(verts, dtype=complex))
    batch, m = verts.shape
    if m < 3:
        raise SurfaceError("polygon needs at least 3 vertices")
    v = verts.T.copy()
    scale = np.abs(v).max(axis=0)
    eps = 1e-12 * scale * scale
    x, y = v.real.copy(), v.imag.copy()
    idx = np.broadcast_to(np.arange(m)[:, None], (m, batch))
    tris = np.empty((batch, m - 2, 3), dtype=np.intp)
    ok = np.ones(batch, dtype=bool)
    for r in range(m, 3, -1):
        prv, nxt, _ = _ear_indices(r)
        k = np.zeros(batch, dtype=np.intp)
        rest = (~_ears(x, y, eps, r, slice(0, 1))[0]).nonzero()[0]
        if rest.size:
            ear = _ears(x.take(rest, 1), y.take(rest, 1), eps.take(rest), r,
                        slice(1, r))
            first = ear.argmax(axis=0)
            hit = ear[first, np.arange(rest.size)]
            k[rest] = np.where(hit, first + 1, 0)
            ok[rest] &= hit
        at = np.stack([prv.take(k), k, nxt.take(k)])
        tris[:, m - r] = np.take_along_axis(idx, at, 0).T
        j = np.arange(r - 1)[:, None]
        keep = j + (j >= k)
        x, y, idx = (np.take_along_axis(a, keep, 0) for a in (x, y, idx))
    tris[:, -1] = idx.T
    return tris, ok


def _ears(x, y, eps, r, corners: slice) -> np.ndarray:
    """Whether each of the ``corners`` of each r-gon of ``x``, ``y`` (r, n),
    held corners first, is an ear with tolerance ``eps`` (n,): (c, n)."""
    prv, nxt, other = (a[corners] for a in _ear_indices(r))
    bx, by = x[corners], y[corners]
    ax, ay, cx, cy = x.take(prv, 0), y.take(prv, 0), x.take(nxt, 0), y.take(nxt, 0)
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    ear = ux * vy - uy * vx > eps
    px, py = x.take(other, 0), y.take(other, 0)  # (c, r - 3, n)
    tol = -eps
    inside = (ux[:, None] * (py - ay[:, None])
              - uy[:, None] * (px - ax[:, None]) >= tol)
    inside &= (vx[:, None] * (py - by[:, None])
               - vy[:, None] * (px - bx[:, None]) >= tol)
    inside &= (wx[:, None] * (py - cy[:, None])
               - wy[:, None] * (px - cx[:, None]) >= tol)
    return ear & ~inside.any(axis=1)


@functools.lru_cache(maxsize=None)
def _ear_indices(r: int):
    """Previous and next corner of each corner of an r-gon, and (r, r - 3)
    the other corners of each."""
    k = np.arange(r)
    out = ((k - 1) % r, (k + 1) % r, (k[:, None] + 2 + np.arange(r - 3)) % r)
    for a in out:
        a.setflags(write=False)
    return out


def ear_clip(vertices) -> list[tuple[int, int, int]]:
    """Triangulate a simple positively oriented polygon by ear clipping.

    Returns triangles as triples of indices into the input vertex list.
    This is :func:`ear_clip_batch` on one row; raises
    :class:`SurfaceError` for fewer than 3 vertices or when it finds no ear.
    """
    tris, ok = ear_clip_batch([complex(v) for v in vertices])
    if not ok[0]:
        raise SurfaceError("no ear found; polygon not simple enough")
    return [tuple(t) for t in tris[0].tolist()]


MASK_BLOCK = 2048  # edge pair tests per block (1024 rows of a 4-gon)


@functools.lru_cache(maxsize=64)
def _mask_indices(m: int):
    """Next and previous corner of each corner of an m-gon, and its
    non-adjacent edge pairs (i, j), i < j, as index arrays in stages.

    For even m the half turn (i, j) -> (i + m/2, j + m/2) groups the edge
    pairs in orbits of one or two.  The first stage holds the lesser pair
    of each orbit of two; the second holds the rest: the other pair of each
    such orbit and the pairs of opposite edges, which the half turn fixes.
    A centrally symmetric polygon meets the two pairs of an orbit alike, up
    to rounding, and its opposite edges are parallel, so the first stage
    rejects nearly every row that fails.  For odd m, and for m = 4, whose
    orbits are all of one pair, there is one stage; for m = 3 none (an
    empty stage is left out)."""
    k = np.arange(m)
    i, j = np.triu_indices(m, 2)
    keep = ~((i == 0) & (j == m - 1))  # adjacent around the wrap
    i, j = i[keep], j[keep]
    first = np.zeros(i.size, bool)
    if m % 2 == 0:
        ti, tj = (i + m // 2) % m, (j + m // 2) % m
        first = i * m + j < np.minimum(ti, tj) * m + np.maximum(ti, tj)
    stages = tuple((i[s], j[s]) for s in (first, ~first) if s.any())
    out = ((k + 1) % m, (k - 1) % m, stages)
    for a in (*out[:2], *(a for stage in stages for a in stage)):
        a.setflags(write=False)
    return out


def polygon_simple_mask(verts: np.ndarray) -> np.ndarray:
    """Vectorized strict simplicity test for a batch of polygons.

    ``verts`` has shape (batch, m), complex.  Rejects degenerate edges,
    improper contacts between non-adjacent edges, and reversal at a joint.
    Collinear non-adjacent edges pass when they are disjoint.  Tolerances
    are ``TOL_SIMPLE`` relative to each row's scale (squared for crosses).
    The per-corner tests run on every row; the non-adjacent edge pairs are
    tested in the stages of ``_mask_indices``, each on the rows that passed
    everything before it, so a second stage sees only the rows that pass
    the first.  A stage tests its pairs on MASK_BLOCK // pairs rows at a
    time (one row at least), so the temporaries stay O(MASK_BLOCK) for any
    batch of polygons with at most MASK_BLOCK pairs.  The rows
    are held corners first, (m, batch), so every reduction over corners or
    pairs runs along whole rows.  Every test is elementwise, so each row's
    answer is the one all tests on all rows give.
    """
    verts = np.atleast_2d(np.asarray(verts, dtype=complex))
    batch, m = verts.shape
    nxt, prv, stages = _mask_indices(m)
    v = verts.T.copy()
    e = v.take(nxt, 0) - v
    scale = np.abs(v).max(axis=0) + np.abs(e).max(axis=0)
    ok = scale > 0
    safe = np.where(ok, scale, 1.0)
    eps = TOL_SIMPLE * safe * safe
    ok &= (np.abs(e) > TOL_SIMPLE * safe).all(axis=0)
    prev = e.take(prv, 0)
    dot = prev.real * e.real + prev.imag * e.imag
    folded = (np.abs(_cross(prev, e)) <= eps) & (dot < 0)
    ok &= ~folded.any(axis=0)

    live = ok.nonzero()[0]
    for pi, pj in stages:
        step = max(1, MASK_BLOCK // pi.size)
        live = np.concatenate([
            rows[_pairs_apart(v, e, eps, rows, pi, pj)]
            for rows in np.split(live, range(step, live.size, step))])
    ok = np.zeros(batch, bool)
    ok[live] = True
    return ok


def _pairs_apart(v, e, eps, rows, pi, pj) -> np.ndarray:
    """Whether each of ``rows`` keeps every edge pair (pi, pj) apart, for
    vertices ``v`` and edges ``e`` held corners first."""
    v, e, tol = v.take(rows, 1), e.take(rows, 1), eps.take(rows)
    p1, ei = v.take(pi, 0), e.take(pi, 0)
    q1, ej = v.take(pj, 0), e.take(pj, 0)
    d1 = _cross(ei, q1 - p1)
    d2 = _cross(ei, q1 + ej - p1)
    d3 = _cross(ej, p1 - q1)
    d4 = _cross(ej, p1 + ei - q1)
    sep_i = (np.maximum(d1, d2) < -tol) | (np.minimum(d1, d2) > tol)
    sep_j = (np.maximum(d3, d4) < -tol) | (np.minimum(d3, d4) > tol)
    sep = sep_i | sep_j
    if not sep.all():
        _separate_collinear(sep, tol, p1, ei, q1, ej, d1, d2, d3, d4)
    return sep.all(axis=0)


def _separate_collinear(sep, tol, p1, ei, q1, ej, d1, d2, d3, d4) -> None:
    """Mark in ``sep`` (pairs, rows) the collinear pairs (all four crosses
    within tol), which fail both cross tests, whose projections onto e_i
    are disjoint."""
    near = ~sep & (np.abs(d1) <= tol)
    if not near.any():
        return
    c, r = np.nonzero(near)
    t = tol[r]
    coll = ((np.abs(d2[c, r]) <= t) & (np.abs(d3[c, r]) <= t)
            & (np.abs(d4[c, r]) <= t))
    c, r, t = c[coll], r[coll], t[coll]
    u, off = ei[c, r], q1[c, r] - p1[c, r]
    a = _dot(u, off)
    b = _dot(u, off + ej[c, r])
    apart = (np.maximum(a, b) < -t) | (np.minimum(a, b) > _dot(u, u) + t)
    sep[c[apart], r[apart]] = True


def symmetric_vertices(sides) -> np.ndarray:
    """Vertices 0, z_1, z_1 + z_2, ... of the centrally symmetric polygon
    with side sequence z_1, ..., z_n, -z_1, ..., -z_n, summed left to right:
    the vertices :func:`surface_from_symmetric_polygon` triangulates.

    ``sides`` is one polygon (n,), giving (2n,), or a stack (..., n),
    giving a C-contiguous (..., 2n); every polygon is summed in the same
    order.  The sums run one vertex column at a time over the whole stack:
    a cumulative sum along the last axis runs one short inner loop per
    polygon and takes about three times as long.  v - z has the bits of
    v + (-z), so the columns are the left-to-right sums bit for bit.
    """
    sides = np.asarray(sides, dtype=complex)
    n = sides.shape[-1]
    verts = np.empty(sides.shape[:-1] + (2 * n,), dtype=complex)
    verts[..., 0] = 0
    for k in range(n):
        np.add(verts[..., k], sides[..., k], out=verts[..., k + 1])
    for k in range(n - 1):
        np.subtract(verts[..., n + k], sides[..., k], out=verts[..., n + k + 1])
    return verts


# (u, v) -> (v, -u) on the rows (ux, uy, vx, vy), or on those of B
_SWAP, _FLIP = np.array([2, 3, 0, 1]), np.array([1, 1, -1, -1])


def reduce_lattice_bases(sides) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduce each positively oriented lattice basis (u, v)
    of ``sides`` (batch, 2).

    Returns the reduced sides (batch, 2) and B (batch, 2, 2) int64 with
    det B = +1 and reduced = B (u, v), computed as that product from
    ``sides``.  A reduced basis has 0 <= Re(conj(u) v) <= min(|u|, |v|)^2
    / 2, up to rounding, so its parallelogram is the fattest one of the
    lattice and the triangle (0, u, v) has no obtuse angle: the ear clip
    of the parallelogram cuts it along v - u, the shorter diagonal, into
    two such triangles, a Delaunay triangulation.  The torus C / (Zu + Zv)
    does not change.  One step takes v to v - m u, m the nearest integer
    to Re(conj(u) v) / |u|^2, and then, if v has become the shorter, swaps
    (u, v) to (v, -u), which keeps det = +1; each basis takes its own
    steps, all in one vectorised loop over the bases not yet reduced.  A
    reduced basis with Re(conj(u) v) < 0 is last turned to (v, -u) too,
    which makes it positive.

    The loop holds ux, uy, vx, vy and the four entries of B as the rows
    of a real and an int64 array (4, bases), so a step is a few whole-row
    operations and a swap is a gather of rows.  Its v - m u may differ
    from the complex product m u in the sign of a zero, which changes
    neither m nor the swap test, so B is that of a loop in complex
    arithmetic; the sides are then computed from B, those of the turned
    rows once more.  Raises ``ValueError`` unless ``sides`` has shape
    (batch, 2), and before a step whose multiplier or new entries of B
    could reach 2**62 (a nan or infinite multiplier too), so B never
    leaves int64.
    """
    sides = np.asarray(sides, dtype=complex)
    if sides.ndim != 2 or sides.shape[1] != 2:
        raise ValueError(f"sides must have shape (batch, 2), got {sides.shape}")
    u, v = sides[:, 0], sides[:, 1]
    if not (np.isfinite(sides).all() and (_cross(u, v) > 0).all()):
        raise ValueError("lattice bases must be finite and positively oriented")
    n = len(sides)
    w = np.stack([u.real, u.imag, v.real, v.imag])  # ux, uy, vx, vy
    rows = np.zeros((4, n), dtype=np.int64)  # B00, B01, B10, B11
    rows[0] = rows[3] = 1
    out = np.empty((n, 4), dtype=np.int64)
    live = np.arange(n)
    while live.size:
        ux, uy, vx, vy = w
        norm = ux * ux + uy * uy
        # |r1 - m r0| <= |r1| + |m| |r0|, held below 2**62 with room for rounding
        with np.errstate(all="ignore"):
            m = np.rint((ux * vx + uy * vy) / norm)
            reach = np.abs(rows[2:]) + np.abs(m) * np.abs(rows[:2])
        if not (reach < INT64_LIMIT / 2).all():
            raise ValueError("lattice basis reduction would leave int64: a "
                             "basis is too close to degenerate")
        w[2:] -= m * w[:2]
        rows[2:] -= m.astype(np.int64) * rows[:2]
        swap = w[2] * w[2] + w[3] * w[3] < norm
        done = (~swap).nonzero()[0]
        out[live.take(done)] = rows.take(done, 1).T
        keep = swap.nonzero()[0]
        live = live.take(keep)
        w, rows = (a.take(keep, 1)[_SWAP] * _FLIP[:, None] for a in (w, rows))
    basis = out.reshape(n, 2, 2)
    reduced = basis[:, :, 0] * sides[:, :1] + basis[:, :, 1] * sides[:, 1:]
    turn = (_dot(reduced[:, 0], reduced[:, 1]) < 0).nonzero()[0]
    if turn.size:
        out[turn] = out.take(turn, 0)[:, _SWAP] * _FLIP
        b, z = basis.take(turn, 0), sides.take(turn, 0)
        reduced[turn] = b[:, :, 0] * z[:, :1] + b[:, :, 1] * z[:, 1:]
    return reduced, basis


def surface_from_symmetric_polygon(sides) -> TranslationSurface:
    """Build a surface from a centrally symmetric 2n-gon with sides glued in
    opposite pairs.

    ``sides`` lists the first n side vectors z_1..z_n; the polygon has side
    sequence z_1, ..., z_n, -z_1, ..., -z_n.  Side k is glued to side k+n.
    The sides are the chart parameters: side k carries the unit row e_k,
    and every edge the integer row of its vector in z_1..z_n.

    The polygon is checked to be simple and positively oriented, then ear
    clipped (:func:`ear_clip`) and given its triangulation's cached tables;
    raises :class:`SurfaceError` when a check fails or ear clipping finds no
    ear.
    """
    verts = symmetric_vertices(sides)
    if not polygon_simple_mask(verts)[0]:
        raise SurfaceError("polygon is not simple")
    if shoelace_area(verts) <= 0:
        raise SurfaceError("polygon is not positively oriented")
    tris = ear_clip(verts)
    corners = verts[np.asarray(tris)]
    return TranslationSurface._from_tables(
        np.roll(corners, -1, axis=1) - corners,
        _symmetric_polygon_tables(len(verts) // 2, tuple(tris)))


@dataclass(frozen=True, eq=False)
class SurfaceBatch:
    """Triangulated surfaces as flat arrays over global half-edges h = 3 t + e
    (t counts the triangles of all surfaces, in batch order), the input of
    the batched unfolding.  Surface s owns the half-edges
    ``start[s]:start[s + 1]``, and every array's columns there are its
    own; surfaces that share a triangulation have equal rows.

    edge           (2, H) float: x, then y, of each edge vector
    neighbor       (H,) the global half-edge glued to h
    corner_vertex  (H,) vertex id of corner h within its surface
    coeffs         (D, H) int64 chart row of each edge, zero padded to the
                   longest row D; zero for a surface without rows
    start          (n + 1,) first half-edge of each surface, then H
    surf           (H,) the surface of each half-edge
    dims           per surface, its row length, or None without rows

    The property :attr:`coeff_max`, the largest |c| in ``coeffs``, is read
    off them, not stored.  :meth:`take` selects surfaces as :meth:`of` would
    batch them.  A surface built on other coordinates w = B z of the chart's
    z (a torus on its reduced basis) has rows in w; :meth:`rebased` rewrites
    them in z, so the unfolding's classes come out in chart coordinates.

    :meth:`delaunay` retriangulates every surface toward Delaunay: rounds
    that twist two-triangle cylinders by whole multiples of their core and
    flip edges whose opposite angles sum past pi, all surfaces at once,
    until a round changes nothing (``DELAUNAY_ROUNDS`` bounds them).  The
    surfaces, their vertices and their classes stay the same, so the
    unfolding finds the same connections, with fewer chain nodes.
    """

    edge: np.ndarray
    neighbor: np.ndarray
    corner_vertex: np.ndarray
    coeffs: np.ndarray
    start: np.ndarray
    surf: np.ndarray
    dims: tuple

    def __len__(self) -> int:
        return len(self.start) - 1

    @property
    def coeff_max(self) -> int:
        """The largest |c| in ``coeffs``, 0 for none."""
        c = self.coeffs
        return max(int(c.max(initial=0)), -int(c.min(initial=0)))

    @classmethod
    def of(cls, surfaces) -> "SurfaceBatch":
        """The batch of a sequence of :class:`TranslationSurface`."""
        surfaces = list(surfaces)
        edges = np.concatenate([np.zeros(0, dtype=complex)]
                               + [X._edges.reshape(-1) for X in surfaces])
        return _gather(edges, [X._tables for X in surfaces],
                       np.arange(len(surfaces)))

    def take(self, rows) -> "SurfaceBatch":
        """The batch of the surfaces ``rows``, in that order, as :meth:`of`
        makes it: chart rows are padded to the longest among them."""
        rows = np.asarray(rows, np.int64)
        first = self.start[:-1].take(rows)
        start, surf, src = _gather_index(np.diff(self.start).take(rows), first)
        dims = tuple(self.dims[r] for r in rows.tolist())
        d = max((k or 0 for k in dims), default=0)
        return SurfaceBatch(
            edge=self.edge.take(src, 1), corner_vertex=self.corner_vertex.take(src),
            neighbor=self.neighbor.take(src) + (start[:-1] - first).take(surf),
            coeffs=self.coeffs[:d].take(src, 1), start=start, surf=surf, dims=dims)

    def rebased(self, basis) -> "SurfaceBatch":
        """The batch with each chart row c of surface s, padded to D,
        rewritten as c @ basis[s]: for a surface built on the coordinates
        w = basis[s] z, its rows in z.  ``basis`` is (n, D, D) integer.
        Raises ``ValueError`` when D coeff_max max|basis|, the most an
        entry or a partial sum could reach, reaches 2**63; like the
        unfolding's guard, it bounds the whole batch.  A batch of no
        surfaces, whose rows have no columns, is its own rebase.
        """
        if not len(self):
            return self
        basis = np.asarray(basis, dtype=np.int64)
        d = self.coeffs.shape[0]
        if basis.shape != (len(self), d, d):
            raise ValueError(f"need a {(len(self), d, d)} basis per surface, "
                             f"got shape {basis.shape}")
        bmax = max(int(basis.max()), -int(basis.min()))
        if d * self.coeff_max * bmax >= INT64_LIMIT:
            raise ValueError(f"{d} rows up to {self.coeff_max} times a basis "
                             f"up to {bmax} could reach 2**63, beyond int64")
        b = basis.take(self.surf, 0)  # each half-edge's basis
        coeffs = np.zeros_like(self.coeffs)
        for i in range(d):
            for j in range(d):
                coeffs[j] += self.coeffs[i] * b[:, i, j]
        return replace(self, coeffs=coeffs)

    def delaunay(self) -> "SurfaceBatch":
        """The same surfaces retriangulated toward Delaunay, as a new batch.

        Each surface is retriangulated on its own, in rounds that run for
        the whole batch at once.  An edge is a candidate when cot(alpha) +
        cot(beta) < -1e-9, alpha and beta the angles opposite it; the cot
        of the angle opposite a half-edge is -(b . c) / cross(b, c), from
        the two edges b, c that follow it in its triangle.  First each
        glued pair is made exactly opposite (the later half-edge takes the
        negated vector of the earlier, which the ear clip matched only to
        rounding); then a round takes two steps:

        1. Twist.  A candidate glued between triangles t and u that share
           exactly two edge pairs crosses a two-triangle cylinder: t's
           third edge c and u's, -c, bound it.  With p and q the edges
           after c in t and k = rint(Re(p conj c) / |c|^2), a cylinder with
           |k| >= 2 gets p - k c for p and q + k c for q, their rows alike,
           and the glued half-edges the negated vectors and rows; nothing
           else changes.  Every cylinder with |k| >= 2 has a candidate,
           unless it is some 10^9 times taller than its core.
        2. Flip.  Of the candidates on no triangle just twisted, each
           surface flips those whose (cot sum, half-edge) is the least
           among the candidates of both their triangles, an independent
           set.  Flipping h (in t, from P to Q, then b, c) glued to g (in
           u, then d, e) puts c + d, from R to S, at h and its negation at
           g; t keeps (c + d, e, b) and u (-(c + d), c, d), each edge with
           its corner vertex and row.

        The rounds run until one changes nothing.  ``DELAUNAY_ROUNDS`` only
        bounds them: the cone samples of the full octagon chart converge
        within it, and it leaves about one in a few hundred of a subspace's
        (a thin cylinder of more than two triangles is sheared one flip a
        round).  A surface left with a candidate is still a triangulation
        of the same surface, which unfolds correctly, and every class is
        the row of a chain of edges, so the unfolding finds the same
        connections.  A twist or flip whose new rows would pass max(2**31,
        the largest |c| its surface came with) is skipped, as is a twist
        whose k is not finite or reaches 2**62, so coeff_max stays within
        max(2**31, coeff_max).
        """
        work = _Retriangulation(self)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            work.score_all()
            for _ in range(DELAUNAY_ROUNDS):
                fh = work.candidates()
                if not fh.size:
                    break
                twisted, fh = work.twist(fh)
                changed = np.concatenate([twisted, work.flip(fh)])
                if not changed.size:
                    break
                work.score(changed)
        return work.batch()

    def is_delaunay(self) -> np.ndarray:
        """Which surfaces are Delaunay, (n,) bool: those with no edge that
        :meth:`delaunay` would flip, cot(alpha) + cot(beta) < -1e-9, the
        cots taken as there (``_minus_cots``), each half-edge's in its own
        triangle.  An edge whose cot sum is not a number (a degenerate
        triangle) makes its surface not Delaunay."""
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = _minus_cots(self.edge)
            settled = cot + cot.take(self.neighbor) <= DELAUNAY_TOL
        out = np.ones(len(self), bool)
        out[self.surf[~settled]] = False
        return out


class _Retriangulation:
    """The working state of :meth:`SurfaceBatch.delaunay`: copies of the
    batch's half-edge arrays, and per half-edge minus the cot of its
    opposite angle and whether its edge is a candidate.  A cot depends on
    its own triangle alone, so after a round only the triangles it changed
    are scored again."""

    def __init__(self, batch: SurfaceBatch):
        self.source = batch
        self.edge, self.rows = batch.edge.copy(), batch.coeffs.copy()
        self.nbr, self.vert = batch.neighbor.copy(), batch.corner_vertex.copy()
        # the identity, but while a flip moves half-edges
        self.where = h = np.arange(self.nbr.size)
        self.nxt, self.prv = h + 1, h - 1  # in the half-edge's triangle
        self.nxt[2::3] -= 3
        self.prv[::3] += 3
        n_tri = self.nbr.size // 3
        self.cot = self.cand = None  # set by score_all
        self.twisted = np.zeros(n_tri, bool)
        self.best, self.least = np.empty(n_tri), np.empty(n_tri, np.int64)
        self.guard = _RowGuard(batch)
        upper = (self.where > self.nbr).nonzero()[0]
        _put(self.edge, upper, -self.edge.take(self.nbr.take(upper), 1))

    def score_all(self) -> None:
        """Score every half-edge, and the candidacy of every edge."""
        self.cot = _minus_cots(self.edge)
        self.cand = self.cot + self.cot.take(self.nbr) > DELAUNAY_TOL  # both halves

    def score(self, h) -> None:
        """Score again the half-edges ``h``, whole triangles, and the
        candidacy of their edges."""
        edge, cot = self.edge, self.cot
        cot[h] = _cot(edge.take(self.nxt.take(h), 1), edge.take(self.prv.take(h), 1))
        g = self.nbr.take(h)
        self.cand[h] = self.cand[g] = cot.take(h) + cot.take(g) > DELAUNAY_TOL

    def candidates(self):
        """The earlier half-edge of each candidate edge, in order."""
        fh = self.cand.nonzero()[0]
        return fh[fh < self.nbr.take(fh)]

    def twist(self, fh):
        """Twist the cylinders that the candidates ``fh`` cross; returns
        the half-edges of the twisted triangles and the candidates on
        none of them."""
        edge, rows, nbr, nxt, prv = self.edge, self.rows, self.nbr, self.nxt, self.prv
        none = fh[:0]
        u = nbr.take(fh) // 3
        # c is the edge of fh's triangle that is not glued to u
        to_u = nbr.take(nxt.take(fh)) // 3 == u
        cyl = (to_u != (nbr.take(prv.take(fh)) // 3 == u)).nonzero()[0]
        if not cyl.size:
            return none, fh
        f = fh.take(cyl)
        hc = np.where(to_u.take(cyl), prv.take(f), nxt.take(f))
        c, p = edge.take(hc, 1), edge.take(nxt.take(hc), 1)
        k = np.rint((p[0] * c[0] + p[1] * c[1]) / (c[0] * c[0] + c[1] * c[1]))
        go = ((np.abs(k) >= 2) & (np.abs(k) < 2.0**62)).nonzero()[0]
        if go.size > 1:
            # a cylinder once: either candidate that found it gives the
            # same twist, bit for bit, so any one may stay
            pair = np.minimum(hc // 3, u.take(cyl)).take(go)
            self.least[pair] = go
            go = go[self.least.take(pair) == go]
        if not go.size:
            return none, fh
        hc, k = hc.take(go), k.take(go)
        hp, hq = nxt.take(hc), prv.take(hc)
        ops = (rows.take(hp, 1), rows.take(hq, 1), rows.take(hc, 1),
               k.astype(np.int64))
        fit = self.guard.fits(_twisted, hc, np.abs(k).max() + 1, *ops)
        if fit is not None:
            hc, hp, hq, k = hc[fit], hp[fit], hq[fit], k[fit]
            ops = tuple(a[..., fit] for a in ops)
        kc = k * edge.take(hc, 1)
        side = np.concatenate([hp, hq])
        far = nbr.take(side)
        new = np.concatenate([edge.take(hp, 1) - kc, edge.take(hq, 1) + kc], axis=1)
        r = np.concatenate(_twisted(*ops), axis=1)
        for a, v in ((edge, new), (rows, r)):
            _put(a, side, v)
            _put(a, far, -v)
        self.guard.grow(r)
        tri = np.concatenate([hc, far[:hc.size]]) // 3  # t and u
        self.twisted[tri] = True
        keep = ~(self.twisted.take(fh // 3) | self.twisted.take(nbr.take(fh) // 3))
        self.twisted[tri] = False
        # t's half-edges c, p, q, and u's -p, -q and -c before -p
        return np.concatenate([hc, side, far, prv.take(far[:hc.size])]), fh[keep]

    def flip(self, fh):
        """Flip the candidates ``fh`` that are the least, by (cot sum,
        half-edge), in both their triangles; returns the half-edges of
        the flipped triangles."""
        edge, rows, vert, nbr = self.edge, self.rows, self.vert, self.nbr
        if not fh.size:
            return fh
        fg = nbr.take(fh)
        s = self.cot.take(fh) + self.cot.take(fg)  # minus the cot sum
        t, u = fh // 3, fg // 3
        best, least = self.best, self.least
        best[t] = best[u] = -np.inf
        np.maximum.at(best, t, s)
        np.maximum.at(best, u, s)
        at_t, at_u = best.take(t) == s, best.take(u) == s
        least[t] = least[u] = nbr.size
        np.minimum.at(least, t[at_t], fh[at_t])
        np.minimum.at(least, u[at_u], fh[at_u])
        go = (at_t & at_u & (least.take(t) == fh)
              & (least.take(u) == fh)).nonzero()[0]
        fh, fg = fh.take(go), fg.take(go)
        t2, u1 = self.prv.take(fh), self.nxt.take(fg)
        ops = (rows.take(t2, 1), rows.take(u1, 1))
        fit = self.guard.fits(_summed, fh, 2, *ops)
        if fit is not None:
            fh, fg, t2, u1 = fh[fit], fg[fit], t2[fit], u1[fit]
            ops = tuple(a[:, fit] for a in ops)
        (r,) = _summed(*ops)
        t1, u2 = self.nxt.take(fh), self.prv.take(fg)
        # the outer edges turn one place: u2 -> t1 -> t2 -> u1 -> u2
        src = np.concatenate([u2, t1, t2, u1])
        dst = np.concatenate([t1, t2, u1, u2])
        d = edge.take(t2, 1) + edge.take(u1, 1)
        vh, vg = vert.take(t2), vert.take(u2)
        for a, v in ((edge, d), (rows, r)):
            _put(a, dst, a.take(src, 1))
            _put(a, fh, v)
            _put(a, fg, -v)
        vert[dst] = vert.take(src)
        vert[fh], vert[fg] = vh, vg
        self.where[src] = dst
        partner = self.where.take(nbr.take(src))
        self.where[src] = src
        nbr[dst] = partner
        nbr[partner] = dst
        self.guard.grow(r)
        return np.concatenate([fh, dst, fg])

    def batch(self) -> SurfaceBatch:
        return replace(self.source, edge=self.edge, neighbor=self.nbr,
                       corner_vertex=self.vert, coeffs=self.rows)


def _put(a, idx, values) -> None:
    """a[:, idx] = values, one row at a time: for these few rows the
    two-dimensional fancy assignment takes about twice as long."""
    for row, v in zip(a, values):
        row[idx] = v


def _minus_cots(edge) -> np.ndarray:
    """Minus the cot of the angle opposite each half-edge, (H,), from the
    edge vectors (2, H) of whole triangles, a triangle column at a time
    (no takes)."""
    n_tri = edge.shape[1] // 3
    x, y = edge.reshape(2, n_tri, 3)
    cot = np.empty((n_tri, 3))
    for k in range(3):
        cot[:, k] = _cot((x[:, k - 2], y[:, k - 2]), (x[:, k - 1], y[:, k - 1]))
    return cot.reshape(-1)


def _cot(b, c):
    """Minus the cot of the angle opposite a half-edge, from the edges b, c
    (x, y stacked first) that follow it in its triangle: (b . c) /
    cross(b, c)."""
    return (b[0] * c[0] + b[1] * c[1]) / (b[0] * c[1] - b[1] * c[0])


def _twisted(p, q, c, k):
    """The rows of p - k c and q + k c, one column per move."""
    kc = k * c
    return p - kc, q + kc


def _summed(a, b):
    """The rows of a + b, one column per move."""
    return (a + b,)


class _RowGuard:
    """Which twists or flips of :meth:`SurfaceBatch.delaunay` keep each
    surface's rows within max(2**31, the largest |c| it came with)."""

    FLOOR = 2**31

    def __init__(self, batch: "SurfaceBatch"):
        self.batch = batch
        self.cmax = batch.coeff_max  # bounds every |c| so far
        self.limit = None

    def fits(self, rows, he, growth, *operands) -> np.ndarray | None:
        """Which of the moves named by the half-edges ``he`` keep every
        entry of the rows ``rows(*operands)`` (one per move) within the
        limit of their surface, or None for all of them.  No entry passes
        growth * cmax, which decides at once when it is within 2**31;
        otherwise the rows are taken in Python ints."""
        if growth * self.cmax <= self.FLOOR:
            return None
        if self.limit is None:
            b = self.batch
            top = np.abs(b.coeffs).max(axis=0, initial=0)
            self.limit = np.maximum(np.maximum.reduceat(top, b.start[:-1]),
                                    self.FLOOR).astype(object)
        limit = self.limit[self.batch.surf[he]]
        ok = np.ones(he.size, bool)
        for r in rows(*(a.astype(object) for a in operands)):
            ok &= (np.abs(r).max(axis=0, initial=0) <= limit).astype(bool)
        return ok

    def grow(self, rows) -> None:
        """Take in the new ``rows``."""
        self.cmax = max(self.cmax, int(np.abs(rows).max(initial=0)))


def _gather(edges, tables, kind) -> SurfaceBatch:
    """The batch of the surfaces whose edge vectors are ``edges`` (H,),
    surfaces in order, where surface s has the tables ``tables[kind[s]]``.
    The tables are stacked once, as columns (neighbor, corner vertex, padded
    chart row) of a (2 + D, rows) array, and gathered onto the half-edges
    of their surfaces in one take, which leaves every row C-contiguous."""
    size = np.asarray([t.neighbor.size for t in tables], np.int64)
    first = np.cumsum(size) - size  # where each table's columns begin
    d = max((t.dim or 0 for t in tables), default=0)
    stacked = np.zeros((2 + d, int(size.sum())), np.int64)
    for t, a in zip(tables, first.tolist()):
        cols = stacked[:, a:a + t.neighbor.size]
        cols[0] = t.neighbor
        cols[1] = t.corner_vertex
        if t.dim:
            cols[2:2 + t.dim] = t.coeffs.T
    start, surf, src = _gather_index(size[kind], first[kind])
    cols = stacked.take(src, 1)
    dims = [t.dim for t in tables]
    return SurfaceBatch(
        edge=np.stack([edges.real, edges.imag]),
        neighbor=cols[0] + start[surf], corner_vertex=cols[1], coeffs=cols[2:],
        start=start, surf=surf,
        dims=((dims[0],) * len(kind) if len(set(dims)) == 1
              else tuple(dims[k] for k in kind.tolist())))


def _gather_index(size, first):
    """The ``start`` and ``surf`` of surfaces of ``size`` half-edges, and the
    column that each half-edge comes from: surface s's from ``first[s]`` on."""
    start = np.concatenate([[0], np.cumsum(size)])
    surf = np.repeat(np.arange(len(size)), size)
    src = (first - start[:-1]).repeat(size) + np.arange(start[-1])
    return start, surf, src


def symmetric_polygon_batch(sides) -> tuple[SurfaceBatch, np.ndarray]:
    """Build the surfaces of a batch of centrally symmetric polygons.

    ``sides`` (batch, n) holds the first side vectors of each polygon, which
    are its chart parameters, as in :func:`surface_from_symmetric_polygon`.
    The rows are not checked: pass only rows whose
    :func:`symmetric_vertices` passed :func:`polygon_simple_mask` and have
    positive area.  Those very vertices are ear clipped, all rows at once
    (:func:`ear_clip_batch`).

    Returns the batch of the rows that ear clip and ``ok`` (batch,), which
    rows those are.  The neighbour table, corner vertices, vertex count
    and integer edge coordinates depend only on the key (n, ear-clip
    index triples); they are made once per key, kept read-only in a
    bounded LRU cache, and gathered once per batch onto the rows of every
    surface with that key.  Only the edge vectors are computed per row.
    """
    sides = np.asarray(sides, dtype=complex)
    n = sides.shape[1]
    verts = symmetric_vertices(sides)
    tris, ok = ear_clip_batch(verts)
    tris, verts = tris[ok], verts[ok]
    # an ear clip is fixed by the corner it clips at each step
    first, kind = distinct_rows(tris[:, :-1, 1])
    tables = tuple(_symmetric_polygon_tables(n, tuple(map(tuple, key)))
                   for key in tris[first].tolist())
    corners = verts[np.arange(len(tris))[:, None, None], tris]
    edges = np.roll(corners, -1, axis=2) - corners
    return _gather(edges.reshape(-1), tables, kind), ok


def distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rows of the int array ``a`` (batch, k): the first row of each
    distinct value (the earliest, as the sort is stable), and the index of
    each row's value among those."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    kind = np.empty(len(a), dtype=np.intp)
    kind[order] = np.cumsum(new) - 1
    return order[new], kind


def symmetric_polygon_gluings(n: int, tris) -> dict:
    """The gluings (tri, edge) -> (tri, edge) of a centrally symmetric
    2n-gon with corners 0, ..., 2n - 1 in order, triangulated by the
    positively oriented vertex triples ``tris`` (vertices >= 2n are interior
    points): an interior edge is glued to its reverse, side k to side k + n.
    """
    m = 2 * n
    where = {(vs[k], vs[(k + 1) % 3]): (t, k)
             for t, vs in enumerate(tris) for k in range(3)}

    def partner(a, b):
        return (b, a) if (b, a) in where else ((a + n) % m, (b + n) % m)

    try:
        return {loc: where[partner(*ab)] for ab, loc in where.items()}
    except KeyError as err:
        raise SurfaceError(f"no edge {err.args[0]} to glue to") from None


@functools.lru_cache(maxsize=4096)
def _symmetric_polygon_tables(n: int, tris) -> _SurfaceTables:
    # row v: vertex v in the sides (column i is the polygon of side e_i)
    rows = symmetric_vertices(np.eye(n)).real.T.astype(np.int64)
    corner = rows[np.asarray(tris)]
    coords = np.roll(corner, -1, axis=1) - corner
    return _surface_tables(len(tris), symmetric_polygon_gluings(n, tris), coords)
