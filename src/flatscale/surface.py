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
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerances for the metric validation checks.
TOL_CLOSURE = 1e-9
TOL_GLUING = 1e-9
TOL_ANGLE = 1e-7
TOL_SIMPLE = 1e-12  # of the polygon simplicity test
INT64_LIMIT = 2**63  # |c| of every chart coefficient and class stays below it


class SurfaceError(ValueError):
    pass


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


@dataclass(frozen=True)
class StratumSignature:
    """Multiset of zero orders; order 0 marks a regular marked point."""

    zero_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(m) for m in self.zero_orders)
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
    metric_errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.metric_errors

    def __str__(self):
        return "\n".join(self.metric_errors) if self.metric_errors else "valid"


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
        data = {
            "triangles": [[[z.real, z.imag] for z in t]
                          for t in self._edges.tolist()],
            "gluings": [[list(divmod(h, 3)), list(divmod(g, 3))]
                        for h, g in enumerate(self._tables.neighbor.tolist())
                        if h < g],
            "zeros": {str(v): m for v, m in enumerate(self.vertex_orders())},
        }
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
        return cls(tri, gluings)


@dataclass(frozen=True, eq=False)
class _SurfaceTables:
    """Combinatorics of a triangulated surface, independent of edge vectors,
    as read-only arrays over half-edges h = 3 t + e (edge e of triangle t).

    One instance is shared by every surface with the same triangulation,
    and the batched unfolding reads its arrays as they are.

    neighbor       (3T,) the half-edge glued to h: the gluing, a fixed-point
                   free involution on all 3T half-edges
    corner_vertex  (3T,) vertex id of corner h, the start of edge h
    n_vertices     number of vertices
    coeffs         (3T, dim) int64 row of edge h in chart parameters, every
                   |c| < 2**63; None without rows
    dim            length of a row, or None without rows
    coeff_max      largest |c|, 0 without rows
    """

    neighbor: np.ndarray
    corner_vertex: np.ndarray
    n_vertices: int
    coeffs: np.ndarray | None
    dim: int | None
    coeff_max: int


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

    coeffs, dim, cmax = None, None, 0
    if edge_coords is not None:
        edge_coords = np.asarray(edge_coords, dtype=object)
        if edge_coords.ndim != 3 or edge_coords.shape[:2] != (n_triangles, 3):
            raise SurfaceError(f"edge_coords must have shape ({n_triangles}, 3, d)")
        dim = edge_coords.shape[2]
        ints = [_integer(x) for x in edge_coords.reshape(-1).tolist()]
        cmax = max(map(abs, ints), default=0)
        coeffs = np.array(ints, dtype=np.int64).reshape(3 * n_triangles, dim)
    for a in (nbr, vert, coeffs):
        if a is not None:
            a.setflags(write=False)
    return _SurfaceTables(nbr, vert, len(roots), coeffs, dim, cmax)


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
    Each step tests every remaining corner b of every row at once, with
    neighbours a and c: b is an ear when its turn cross(b - a, c - b)
    exceeds eps and no other remaining vertex p has cross(b - a, p - a),
    cross(c - b, p - b) and cross(a - c, p - c) all >= -eps, where eps =
    1e-12 * max |v|^2 per row.  The first ear of a row is clipped, so every
    row gets the triangles a corner-by-corner scan of that row would give,
    from the same float predicates.
    """
    verts = np.atleast_2d(np.asarray(verts, dtype=complex))
    batch, m = verts.shape
    if m < 3:
        raise SurfaceError("polygon needs at least 3 vertices")
    scale = np.abs(verts).max(axis=1)
    eps = (1e-12 * scale * scale)[:, None]
    tol = -eps[:, :, None]
    x, y = verts.real, verts.imag
    idx = np.broadcast_to(np.arange(m), (batch, m))
    rows = np.arange(batch)
    tris = np.empty((batch, m - 2, 3), dtype=np.intp)
    ok = np.ones(batch, dtype=bool)
    for r in range(m, 3, -1):
        prv, nxt, other = _ear_indices(r)
        ax, ay, cx, cy = x.take(prv, 1), y.take(prv, 1), x.take(nxt, 1), y.take(nxt, 1)
        ux, uy, vx, vy, wx, wy = x - ax, y - ay, cx - x, cy - y, ax - cx, ay - cy
        ear = ux * vy - uy * vx > eps
        px, py = x.take(other, 1), y.take(other, 1)  # (batch, r, r - 3)
        inside = (ux[..., None] * (py - ay[..., None])
                  - uy[..., None] * (px - ax[..., None]) >= tol)
        inside &= (vx[..., None] * (py - y[..., None])
                   - vy[..., None] * (px - x[..., None]) >= tol)
        inside &= (wx[..., None] * (py - cy[..., None])
                   - wy[..., None] * (px - cx[..., None]) >= tol)
        ear &= ~inside.any(axis=2)
        k = ear.argmax(axis=1)
        ok &= ear[rows, k]
        tris[:, m - r] = idx[rows[:, None], np.stack([prv[k], k, nxt[k]], axis=1)]
        keep = np.arange(r) != k[:, None]
        idx, x, y = (a[keep].reshape(batch, r - 1) for a in (idx, x, y))
    tris[:, -1] = idx
    return tris, ok


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


MASK_BLOCK = 512  # rows per block of the pairwise edge test


@functools.lru_cache(maxsize=64)
def _mask_indices(m: int):
    """Next and previous corner of each corner of an m-gon, and the index
    arrays (i, j), i < j, of its non-adjacent edge pairs."""
    k = np.arange(m)
    i, j = np.triu_indices(m, 2)
    keep = ~((i == 0) & (j == m - 1))  # adjacent around the wrap
    out = ((k + 1) % m, (k - 1) % m, i[keep], j[keep])
    for a in out:
        a.setflags(write=False)
    return out


def polygon_simple_mask(verts: np.ndarray) -> np.ndarray:
    """Vectorized strict simplicity test for a batch of polygons.

    ``verts`` has shape (batch, m), complex.  Rejects degenerate edges,
    improper contacts between non-adjacent edges, and reversal at a joint.
    Collinear non-adjacent edges pass when they are disjoint.  Tolerances
    are ``TOL_SIMPLE`` relative to each row's scale (squared for crosses).
    All non-adjacent edge pairs are tested at once, MASK_BLOCK rows at a
    time, so the temporaries stay O(MASK_BLOCK * m^2) for any batch.
    """
    verts = np.atleast_2d(np.asarray(verts, dtype=complex))
    batch, m = verts.shape
    nxt, prv, pi, pj = _mask_indices(m)
    e = verts[:, nxt] - verts
    scale = np.abs(verts).max(axis=1) + np.abs(e).max(axis=1)
    ok = scale > 0
    safe = np.where(ok, scale, 1.0)
    eps = TOL_SIMPLE * safe * safe
    ok &= (np.abs(e) > (TOL_SIMPLE * safe)[:, None]).all(axis=1)

    for lo in range(0, batch, MASK_BLOCK):
        rows = slice(lo, lo + MASK_BLOCK)
        v, eb, tol = verts[rows], e[rows], eps[rows, None]
        p1, ei = v[:, pi], eb[:, pi]
        q1, ej = v[:, pj], eb[:, pj]
        d1 = _cross(ei, q1 - p1)
        d2 = _cross(ei, q1 + ej - p1)
        d3 = _cross(ej, p1 - q1)
        d4 = _cross(ej, p1 + ei - q1)
        sep_i = (np.maximum(d1, d2) < -tol) | (np.minimum(d1, d2) > tol)
        sep_j = (np.maximum(d3, d4) < -tol) | (np.minimum(d3, d4) > tol)
        sep = sep_i | sep_j
        if not sep.all():
            _separate_collinear(sep, tol, p1, ei, q1, ej, d1, d2, d3, d4)
        ok[rows] &= sep.all(axis=1)
    prev = e[:, prv]
    dot = prev.real * e.real + prev.imag * e.imag
    folded = (np.abs(_cross(prev, e)) <= eps[:, None]) & (dot < 0)
    ok &= ~folded.any(axis=1)
    return ok


def _separate_collinear(sep, tol, p1, ei, q1, ej, d1, d2, d3, d4) -> None:
    """Mark in ``sep`` the collinear pairs (all four crosses within tol),
    which fail both cross tests, whose projections onto e_i are disjoint."""
    near = ~sep & (np.abs(d1) <= tol)
    if not near.any():
        return
    r, c = np.nonzero(near)
    t = tol[r, 0]
    coll = ((np.abs(d2[r, c]) <= t) & (np.abs(d3[r, c]) <= t)
            & (np.abs(d4[r, c]) <= t))
    r, c, t = r[coll], c[coll], t[coll]
    u, off = ei[r, c], q1[r, c] - p1[r, c]
    a = _dot(u, off)
    b = _dot(u, off + ej[r, c])
    apart = (np.maximum(a, b) < -t) | (np.minimum(a, b) > _dot(u, u) + t)
    sep[r[apart], c[apart]] = True


def symmetric_vertices(sides) -> np.ndarray:
    """Vertices 0, z_1, z_1 + z_2, ... of the centrally symmetric polygon
    with side sequence z_1, ..., z_n, -z_1, ..., -z_n, summed left to right:
    the vertices :func:`surface_from_symmetric_polygon` triangulates.

    ``sides`` is one polygon (n,), giving (2n,), or a stack (..., n),
    giving (..., 2n); every polygon is summed in the same order.
    """
    sides = np.asarray(sides, dtype=complex)
    zero = np.zeros(sides.shape[:-1] + (1,), dtype=complex)
    steps = np.concatenate([zero, sides, -sides[..., :-1]], axis=-1)
    return np.cumsum(steps, axis=-1)


def reduce_lattice_bases(sides) -> tuple[np.ndarray, np.ndarray]:
    """Lagrange-Gauss reduce each positively oriented lattice basis (u, v)
    of ``sides`` (batch, 2).

    Returns the reduced sides (batch, 2) and B (batch, 2, 2) int64 with
    det B = +1 and reduced = B (u, v), computed as that product from
    ``sides``.  A reduced basis has |u| <= |v| and |Re(conj(u) v)| <=
    |u|^2 / 2, up to rounding, so its parallelogram is the fattest one of
    the lattice; the torus C / (Zu + Zv) does not change.  One step takes
    v to v - m u, m the nearest integer to Re(conj(u) v) / |u|^2, and then,
    if v has become the shorter, swaps (u, v) to (v, -u), which keeps
    det = +1.  Each basis takes its own steps, all in one vectorised loop
    over the bases not yet reduced.
    """
    sides = np.asarray(sides, dtype=complex)
    u, v = sides[:, 0], sides[:, 1]
    if not (np.isfinite(sides).all() and (_cross(u, v) > 0).all()):
        raise ValueError("lattice bases must be finite and positively oriented")
    basis = np.empty((len(sides), 2, 2), dtype=np.int64)
    rows = np.zeros_like(basis)
    rows[:, 0, 0] = rows[:, 1, 1] = 1
    live = np.arange(len(sides))
    while live.size:
        norm = _dot(u, u)
        m = np.rint(_dot(u, v) / norm)
        v = v - m * u
        rows[:, 1] -= m.astype(np.int64)[:, None] * rows[:, 0]
        swap = _dot(v, v) < norm
        basis[live[~swap]] = rows[~swap]
        live, u, v, rows = live[swap], v[swap], -u[swap], rows[swap][:, ::-1]
        rows[:, 1] *= -1
    reduced = basis[:, :, 0] * sides[:, :1] + basis[:, :, 1] * sides[:, 1:]
    return reduced, basis


def surface_from_symmetric_polygon(sides) -> TranslationSurface:
    """Build a surface from a centrally symmetric 2n-gon with sides glued in
    opposite pairs.

    ``sides`` lists the first n side vectors z_1..z_n; the polygon has side
    sequence z_1, ..., z_n, -z_1, ..., -z_n.  Side k is glued to side k+n.
    The sides are the chart parameters: side k carries the unit row e_k,
    and every edge the integer row of its vector in z_1..z_n.

    The polygon is checked to be simple and positively oriented, then built
    as the batch of one of :func:`symmetric_polygon_batch`; raises
    :class:`SurfaceError` when a check fails or ear clipping finds no ear.
    """
    verts = symmetric_vertices(sides)
    if not polygon_simple_mask(verts)[0]:
        raise SurfaceError("polygon is not simple")
    if shoelace_area(verts) <= 0:
        raise SurfaceError("polygon is not positively oriented")
    batch, ok = symmetric_polygon_batch([sides])
    if not ok[0]:
        raise SurfaceError("no ear found; polygon not simple enough")
    return TranslationSurface._from_tables(batch.edges.reshape(-1, 3),
                                           batch.tables[0])


@dataclass(frozen=True, eq=False)
class SurfaceBatch:
    """Triangulated surfaces as flat arrays, the input of the batched
    unfolding.

    edges   (H,) complex: the edge vectors of every triangle of every
            surface, three per triangle, surfaces in batch order; the
            rows of each surface's (T, 3) edge array, concatenated
    tables  the distinct :class:`_SurfaceTables` of the batch, whose
            arrays the unfolding reads as they are
    kind    (n,) int: surface s has ``tables[kind[s]]``, and so as many
            triangles as those tables
    """

    edges: np.ndarray
    tables: tuple
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def of(cls, surfaces) -> "SurfaceBatch":
        """The batch of a sequence of :class:`TranslationSurface`; surfaces
        that share their tables share one entry of ``tables``."""
        surfaces = list(surfaces)
        index: dict[int, int] = {}
        tables = []
        kind = np.empty(len(surfaces), dtype=np.intp)
        for s, X in enumerate(surfaces):
            k = index.setdefault(id(X._tables), len(tables))
            if k == len(tables):
                tables.append(X._tables)
            kind[s] = k
        edges = np.concatenate([np.zeros(0, dtype=complex)]
                               + [X._edges.reshape(-1) for X in surfaces])
        return cls(edges, tuple(tables), kind)


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
    index triples); they are made once per key, kept in a bounded LRU
    cache and shared, read-only, by every surface with that key.  Only the
    edge vectors are computed per row.
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
    return SurfaceBatch(edges.reshape(-1), tables, kind), ok


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
