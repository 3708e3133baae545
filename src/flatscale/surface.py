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
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerances for the metric validation checks.
TOL_CLOSURE = 1e-9
TOL_GLUING = 1e-9
TOL_ANGLE = 1e-7


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
    structural_errors: tuple[str, ...]
    metric_errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.structural_errors and not self.metric_errors

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"structural: {e}" for e in self.structural_errors]
        lines += [f"metric: {e}" for e in self.metric_errors]
        return "\n".join(lines)


class TranslationSurface:
    """Immutable triangulated translation surface.

    Parameters
    ----------
    triangles : sequence of 3 complex edge vectors per triangle.  Edge k of a
        triangle runs from corner k to corner k+1 (mod 3); positively
        oriented triangles have cross(e0, e1) > 0.
    gluings : dict mapping (tri, edge) -> (tri, edge).  Must be a fixed-point
        free involution; glued edges carry opposite vectors.
    edge_coords : optional integer array of shape (n_tri, 3, n_params) giving
        each edge vector as an integral combination of chart parameters.
        Enables exact homology classes for enumerated saddle connections.
    """

    def __init__(self, triangles, gluings, edge_coords=None):
        tri = [tuple(complex(z) for z in t) for t in triangles]
        if any(len(t) != 3 for t in tri):
            raise SurfaceError("each triangle needs exactly 3 edges")
        if edge_coords is not None:
            edge_coords = np.asarray(edge_coords)
            if edge_coords.shape[:2] != (len(tri), 3):
                raise SurfaceError("edge_coords shape mismatch")
        self._assign(tri, _surface_tables(len(tri), gluings, edge_coords))

    @classmethod
    def _from_tables(cls, edges, tables: "_SurfaceTables") -> "TranslationSurface":
        """Surface from edge vectors (tuples of complex) and precomputed,
        shared combinatorial tables; nothing is checked or copied."""
        self = cls.__new__(cls)
        self._assign(edges, tables)
        return self

    def _assign(self, edges, tables: "_SurfaceTables") -> None:
        self._edges = edges
        self.n_triangles = len(edges)
        self._tables = tables
        self._gluings = tables.gluings
        self._coeffs = tables.coeffs
        self._neighbor = tables.neighbor
        self._corner_vertex = tables.corner_vertex
        self._n_vertices = tables.n_vertices

    # -- basic geometry --------------------------------------------------------

    def edge(self, t: int, e: int) -> complex:
        return self._edges[t][e]

    def edge_coeff(self, t: int, e: int):
        return None if self._coeffs is None else self._coeffs[t][e]

    @property
    def has_coords(self) -> bool:
        return self._coeffs is not None

    @property
    def n_params(self) -> int:
        if self._coeffs is None:
            raise SurfaceError("surface carries no chart coordinates")
        return len(self._coeffs[0][0])

    @property
    def gluings(self):
        return dict(self._gluings)

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    def vertex_of_corner(self, t: int, c: int) -> int:
        return self._corner_vertex[t][c]

    def corner_angle(self, t: int, c: int) -> float:
        a = self._edges[t][c]
        b = -self._edges[t][(c - 1) % 3]
        return math.atan2(_cross(a, b), _dot(a, b)) % TWO_PI

    def vertex_angles(self) -> list[float]:
        angles = [0.0] * self._n_vertices
        for t in range(self.n_triangles):
            for c in range(3):
                angles[self._corner_vertex[t][c]] += self.corner_angle(t, c)
        return angles

    def vertex_orders(self) -> list[int]:
        """Cone angle of vertex v is 2*pi*(order+1)."""
        return [int(round(a / TWO_PI)) - 1 for a in self.vertex_angles()]

    def area(self) -> float:
        return sum(0.5 * _cross(t[0], t[1]) for t in self._edges)

    def scale(self) -> float:
        return max(abs(z) for t in self._edges for z in t)

    def rescaled(self, s: float) -> "TranslationSurface":
        """Surface with every edge vector multiplied by s > 0.

        Chart coordinates are kept: homology classes are scale invariant.
        """
        tri = [tuple(s * z for z in t) for t in self._edges]
        return TranslationSurface._from_tables(tri, self._tables)

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
        tri = [
            tuple(
                complex(m[0, 0] * z.real + m[0, 1] * z.imag,
                        m[1, 0] * z.real + m[1, 1] * z.imag)
                for z in t
            )
            for t in self._edges
        ]
        return TranslationSurface._from_tables(tri, self._tables)

    # -- validation -------------------------------------------------------------

    def validate(self, sig: StratumSignature | None = None) -> ValidationReport:
        structural: list[str] = []
        metric: list[str] = []
        seen = set()
        for t in range(self.n_triangles):
            for e in range(3):
                key = (t, e)
                if key not in self._gluings:
                    structural.append(f"edge {key} has no gluing partner")
                    continue
                partner = self._gluings[key]
                if partner == key:
                    structural.append(f"edge {key} glued to itself")
                    continue
                pt, pe = partner
                if not (0 <= pt < self.n_triangles and pe in (0, 1, 2)):
                    structural.append(f"edge {key} glued to missing edge {partner}")
                    continue
                if self._gluings.get(partner) != key:
                    structural.append(f"gluing at {key} is not an involution")
                    continue
                seen.add(key)
        if structural:
            return ValidationReport(tuple(structural), tuple(metric))

        s = self.scale()
        for t in range(self.n_triangles):
            e0, e1, e2 = self._edges[t]
            if abs(e0 + e1 + e2) > TOL_CLOSURE * s:
                metric.append(f"triangle {t} edges do not close up")
            if _cross(e0, e1) <= 0:
                metric.append(f"triangle {t} is not positively oriented")
        for (t, e) in seen:
            (t2, e2) = self._gluings[(t, e)]
            if (t, e) < (t2, e2):
                if abs(self._edges[t][e] + self._edges[t2][e2]) > TOL_GLUING * s:
                    metric.append(
                        f"glued edges {(t, e)} and {(t2, e2)} are not opposite")
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
        return ValidationReport(tuple(structural), tuple(metric))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> str:
        data = {
            "triangles": [[[z.real, z.imag] for z in t] for t in self._edges],
            "gluings": sorted(
                [list(k), list(v)] for k, v in self._gluings.items() if k < v
            ),
            "zeros": {str(v): m for v, m in enumerate(self.vertex_orders())},
        }
        return json.dumps(data, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "TranslationSurface":
        data = json.loads(text)
        tri = [[complex(re, im) for re, im in t] for t in data["triangles"]]
        gluings = {}
        for (a, b) in data["gluings"]:
            ka, kb = (a[0], a[1]), (b[0], b[1])
            gluings[ka] = kb
            gluings[kb] = ka
        return cls(tri, gluings)


@dataclass(frozen=True, eq=False)
class _SurfaceTables:
    """Combinatorics of a triangulated surface, independent of edge vectors.

    Every field is immutable, so one instance can be shared by surfaces.
    """

    gluings: MappingProxyType      # (tri, edge) -> (tri, edge)
    neighbor: tuple                # neighbor[t][e]: glued (tri, edge) or None
    corner_vertex: tuple           # corner_vertex[t][c]: vertex id
    n_vertices: int
    coeffs: tuple | None           # coeffs[t][e]: integer row, or None

    @functools.cached_property
    def arrays(self) -> "_TableArrays":
        """The tables as flat arrays over half-edges h = 3 t + e, made once
        per instance and shared by every surface that uses it."""
        nbr = np.asarray([-1 if g is None else 3 * g[0] + g[1]
                          for row in self.neighbor for g in row], dtype=np.int64)
        vert = np.asarray(self.corner_vertex, dtype=np.int64).reshape(-1)
        coeffs, dim, cmax = None, None, 0
        if self.coeffs is not None:
            dim = len(self.coeffs[0][0])
            cmax = max((abs(x) for tri in self.coeffs for row in tri for x in row),
                       default=0)
            if cmax < 2**63:
                coeffs = np.asarray(self.coeffs, dtype=np.int64).reshape(-1, dim)
        for a in (nbr, vert, coeffs):
            if a is not None:
                a.setflags(write=False)
        return _TableArrays(nbr, vert, dim, cmax, coeffs)


class _TableArrays(NamedTuple):
    neighbor: np.ndarray           # (3T,) glued half-edge, or -1
    corner_vertex: np.ndarray      # (3T,) vertex id of corner h
    dim: int | None                # length of a coefficient row, or None
    coeff_max: int                 # largest |coefficient|, 0 without rows
    coeffs: np.ndarray | None      # (3T, dim) int64 rows; None without rows
                                   # or when coeff_max does not fit in int64


def _surface_tables(n_triangles: int, gluings, edge_coords=None) -> _SurfaceTables:
    gluings = MappingProxyType(dict(gluings))
    nbr = [[None] * 3 for _ in range(n_triangles)]
    for (t, e), (t2, e2) in gluings.items():
        if 0 <= t < n_triangles and e in (0, 1, 2):
            nbr[t][e] = (t2, e2)

    # Union-find over corners; corner k of a triangle is the start of
    # edge k.  Gluing (t,e) <-> (t2,e2) identifies corner e of t with
    # the end corner of edge e2 (= corner e2+1) and vice versa.
    parent = list(range(3 * n_triangles))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for (t, e), (t2, e2) in gluings.items():
        union(3 * t + e, 3 * t2 + (e2 + 1) % 3)
        union(3 * t + (e + 1) % 3, 3 * t2 + e2)
    roots = sorted({find(x) for x in range(3 * n_triangles)})
    index = {r: i for i, r in enumerate(roots)}
    corner_vertex = tuple(tuple(index[find(3 * t + c)] for c in range(3))
                          for t in range(n_triangles))

    coeffs = None
    if edge_coords is not None:
        coeffs = tuple(tuple(tuple(int(x) for x in edge_coords[t][e])
                             for e in range(3))
                       for t in range(n_triangles))
    return _SurfaceTables(gluings, tuple(tuple(row) for row in nbr),
                          corner_vertex, len(roots), coeffs)


def validate_surface(surface: TranslationSurface,
                     sig: StratumSignature | None = None) -> ValidationReport:
    return surface.validate(sig)


def area(surface: TranslationSurface) -> float:
    return surface.area()


# -- polygon ingestion -----------------------------------------------------------


def shoelace_area(vertices) -> float:
    n = len(vertices)
    return 0.5 * sum(
        _cross(vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )


def _point_in_triangle(p, a, b, c, eps):
    d1 = _cross(b - a, p - a)
    d2 = _cross(c - b, p - b)
    d3 = _cross(a - c, p - c)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def ear_clip(vertices) -> list[tuple[int, int, int]]:
    """Triangulate a simple positively oriented polygon by ear clipping.

    Returns triangles as triples of indices into the input vertex list.
    """
    n = len(vertices)
    if n < 3:
        raise SurfaceError("polygon needs at least 3 vertices")
    scale = max(abs(v) for v in vertices)
    eps = 1e-12 * scale * scale
    idx = list(range(n))
    out = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise SurfaceError("ear clipping failed; polygon may be degenerate")
        clipped = False
        for k in range(len(idx)):
            i_prev = idx[k - 1]
            i_cur = idx[k]
            i_next = idx[(k + 1) % len(idx)]
            a, b, c = vertices[i_prev], vertices[i_cur], vertices[i_next]
            if _cross(b - a, c - b) <= eps:
                continue
            ok = True
            for j in idx:
                if j in (i_prev, i_cur, i_next):
                    continue
                if _point_in_triangle(vertices[j], a, b, c, eps):
                    ok = False
                    break
            if ok:
                out.append((i_prev, i_cur, i_next))
                del idx[k]
                clipped = True
                break
        if not clipped:
            raise SurfaceError("no ear found; polygon not simple enough")
    out.append((idx[0], idx[1], idx[2]))
    return out


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


def polygon_simple_mask(verts: np.ndarray, rel_eps=1e-12) -> np.ndarray:
    """Vectorized strict simplicity test for a batch of polygons.

    ``verts`` has shape (batch, m), complex.  Rejects degenerate edges,
    improper contacts between non-adjacent edges, and reversal at a joint.
    Collinear non-adjacent edges pass when they are disjoint.
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
    eps = rel_eps * safe * safe
    ok &= (np.abs(e) > (rel_eps * safe)[:, None]).all(axis=1)

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


def polygon_is_simple(vertices, rel_eps=1e-12) -> bool:
    """Strict simplicity: nondegenerate edges, no improper contacts."""
    row = np.asarray([complex(v) for v in vertices])
    return bool(polygon_simple_mask(row[None, :], rel_eps)[0])


class CheckedSides(tuple):
    """First side vectors z_1..z_n, as Python ``complex``, of a centrally
    symmetric polygon already found simple and positively oriented.

    Made only by :func:`checked_sides`, from rows whose vertices passed a
    batch check.  :func:`surface_from_symmetric_polygon` skips its own
    re-check for this type alone; lists, tuples and arrays are checked.
    """

    __slots__ = ()


def symmetric_vertices(sides) -> list[complex]:
    """Vertices 0, z_1, z_1 + z_2, ... of the centrally symmetric polygon
    with side sequence z_1, ..., z_n, -z_1, ..., -z_n, summed left to right:
    the vertices :func:`surface_from_symmetric_polygon` triangulates."""
    full = list(sides) + [-z for z in sides]
    verts = [0j]
    for z in full[:-1]:
        verts.append(verts[-1] + z)
    return verts


def symmetric_vertices_batch(sides) -> np.ndarray:
    """:func:`symmetric_vertices` of every row of ``sides`` (batch, n).

    The result has shape (batch, 2n).  Each row is summed from 0 in the
    same order, so it is bit for bit the list the builder triangulates.
    """
    sides = np.asarray(sides, dtype=complex)
    steps = np.concatenate([np.zeros((len(sides), 1), dtype=complex),
                            sides, -sides[:, :-1]], axis=1)
    return np.cumsum(steps, axis=1)


def checked_sides(sides: np.ndarray) -> list[CheckedSides]:
    """One :class:`CheckedSides` per row of ``sides`` (batch, n).

    Pass only rows whose :func:`symmetric_vertices_batch` passed
    :func:`polygon_simple_mask` and have positive area: the builder trusts
    them and triangulates those very vertices without checking again.
    """
    return [CheckedSides(row) for row in np.asarray(sides, dtype=complex).tolist()]


def surface_from_symmetric_polygon(sides, coeffs=None) -> TranslationSurface:
    """Build a surface from a centrally symmetric 2n-gon with sides glued in
    opposite pairs.

    ``sides`` lists the first n side vectors z_1..z_n; the polygon has side
    sequence z_1, ..., z_n, -z_1, ..., -z_n.  Side k is glued to side k+n.
    ``coeffs`` optionally gives an integer row per side expressing it in
    chart parameters; a tuple of int tuples (such as :func:`identity_rows`)
    is used as the cache key as it is, anything else is converted first.

    The polygon is checked to be simple and positively oriented, unless
    ``sides`` is a :class:`CheckedSides` (its vertices passed that check in
    a batch), then ear clipped.  The gluings, neighbour table, corner
    vertices, vertex count and integer edge coordinates depend only on the
    key (n, ear-clip index triples, coefficient rows); they are memoised per
    key in a bounded LRU cache and shared, read-only, by every surface with
    that key.  Only the edge vectors are computed per call.
    """
    n = len(sides)
    verts = symmetric_vertices(sides)
    if not isinstance(sides, CheckedSides):
        if not polygon_is_simple(verts):
            raise SurfaceError("polygon is not simple")
        if shoelace_area(verts) <= 0:
            raise SurfaceError("polygon is not positively oriented")
    tris = tuple(ear_clip(verts))
    rows = coeffs
    if coeffs is not None and not (type(coeffs) is tuple
                                   and all(type(r) is tuple for r in coeffs)):
        rows = tuple(tuple(int(x) for x in r) for r in coeffs)
    tables = _symmetric_polygon_tables(n, tris, rows)
    edges = [(verts[b] - verts[a], verts[c] - verts[b], verts[a] - verts[c])
             for a, b, c in tris]
    return TranslationSurface._from_tables(edges, tables)


@functools.lru_cache(maxsize=None)
def identity_rows(dim: int) -> tuple[tuple[int, ...], ...]:
    """The unit coefficient rows of a chart whose parameters are its sides."""
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


@functools.lru_cache(maxsize=4096)
def _symmetric_polygon_tables(n: int, tris, rows) -> _SurfaceTables:
    vrows = None
    if rows is not None:
        dim = len(rows[0])
        rows = rows + tuple(tuple(-x for x in r) for r in rows)
        vrows = [tuple([0] * dim)]
        for r in rows[:-1]:
            vrows.append(tuple(a + b for a, b in zip(vrows[-1], r)))

    m = 2 * n
    edge_lookup = {}
    tri_coords = [] if rows is not None else None
    for t, vs in enumerate(tris):
        if tri_coords is not None:
            tri_coords.append([
                tuple(x - y for x, y in zip(vrows[vs[(k + 1) % 3]], vrows[vs[k]]))
                for k in range(3)
            ])
        for k in range(3):
            edge_lookup[(vs[k], vs[(k + 1) % 3])] = (t, k)

    gluings = {}
    for (a, b), (t, k) in edge_lookup.items():
        if (b, a) in edge_lookup:  # interior diagonal
            gluings[(t, k)] = edge_lookup[(b, a)]
        else:  # boundary side (a, a+1): partner is the opposite side
            pa, pb = (a + n) % m, (b + n) % m
            gluings[(t, k)] = edge_lookup[(pa, pb)]
    return _surface_tables(len(tris), gluings, tri_coords)
