import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatscale import sampling
from flatscale.charts import get_chart
from flatscale.surface import (
    MASK_BLOCK,
    StratumSignature,
    SurfaceError,
    TranslationSurface,
    _surface_tables,
    ear_clip,
    ear_clip_batch,
    polygon_simple_mask,
    reduce_lattice_bases,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_polygon_gluings,
    symmetric_vertices,
)

from scalar_ear_clip import scalar_ear_clip


def square_torus():
    return surface_from_symmetric_polygon([1 + 0j, 1j])


def torus(u, v):
    return surface_from_symmetric_polygon([u, v])


OCTAGON_Z = [1 + 0j, 1 + 1j, 1j, -1 + 1j]


def octagon_surface(z=None):
    return surface_from_symmetric_polygon(OCTAGON_Z if z is None else list(z))


class TestStratumSignature:
    def test_torus_marked_point(self):
        sig = StratumSignature((0,))
        assert sig.genus == 1
        assert sig.dimension == 2

    def test_h2(self):
        sig = StratumSignature((2,))
        assert sig.genus == 2
        assert sig.dimension == 4

    def test_h31(self):
        sig = StratumSignature((3, 1))
        assert sig.genus == 3
        assert sig.dimension == 7

    def test_odd_sum_rejected(self):
        with pytest.raises(SurfaceError):
            StratumSignature((1,))


class TestValidation:
    def test_square_torus_valid(self):
        X = square_torus()
        report = X.validate(StratumSignature((0,)))
        assert report.ok, str(report)
        assert X.n_vertices == 1
        assert abs(X.area() - 1.0) < 1e-15

    def test_octagon_in_h2(self):
        X = octagon_surface()
        report = X.validate(StratumSignature((2,)))
        assert report.ok, str(report)
        # independent area oracle: shoelace on the explicit octagon
        verts = [0j]
        for w in OCTAGON_Z + [-w for w in OCTAGON_Z]:
            verts.append(verts[-1] + w)
        assert abs(X.area() - shoelace_area(verts[:-1])) < 1e-12

    def test_perturbed_edge_reports_closure(self):
        X = square_torus()
        tri = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        tri[0][0] = 1.1 + 0j
        bad = TranslationSurface(tri, X.gluings)
        report = bad.validate()
        assert not report.ok
        assert any("close up" in e or "opposite" in e for e in report.metric_errors)

    # a, b and c are the square torus's glued pairs.  Edges glued to
    # themselves and missing keys come as a whole pair, so that reading
    # the dict back as symmetric pairs cannot mend them.
    @pytest.mark.parametrize("break_gluing, fault", [
        (lambda g, a, b, c: g.update({a[0]: (5, 1)}), "missing edge"),
        (lambda g, a, b, c: g.update({a[0]: (-1, 1)}), "missing edge"),
        (lambda g, a, b, c: g.update({a[0]: (1, 3)}), "missing edge"),
        (lambda g, a, b, c: g.update({a[0]: a[0], a[1]: a[1]}), "itself"),
        # a[0] -> b[0] -> b[1] -> b[0], and the same on the other sides
        (lambda g, a, b, c: g.update({a[0]: b[0], b[0]: b[1], b[1]: b[0],
                                      a[1]: c[0], c[0]: c[1], c[1]: c[0]}),
         "not an involution"),
        (lambda g, a, b, c: [g.pop(k) for k in a], "no gluing partner"),
    ], ids=["partner-past-end", "negative-partner", "edge-index-3",
            "glued-to-itself", "not-an-involution", "missing-key"])
    def test_malformed_gluing_is_rejected(self, break_gluing, fault):
        """The constructor and ``from_json`` reject every malformed gluing
        of the square torus with a SurfaceError that names the fault.  Each
        break survives ``from_json``'s symmetric reading of pairs."""
        X = square_torus()
        gl = X.gluings
        break_gluing(gl, *sorted((k, v) for k, v in gl.items() if k < v))
        tri = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        with pytest.raises(SurfaceError, match=fault):
            TranslationSurface(tri, gl)
        data = json.loads(X.to_json())
        data["gluings"] = [[list(k), list(v)] for k, v in gl.items()]
        with pytest.raises(SurfaceError, match=fault):
            TranslationSurface.from_json(json.dumps(data))

    def test_wrong_stratum_detected(self):
        X = square_torus()
        report = X.validate(StratumSignature((2,)))
        assert not report.ok


class TestCoefficients:
    """Chart coefficients are integers of shape (T, 3, d), or SurfaceError."""

    def edges_and_coords(self):
        X = octagon_surface()
        tri = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        coords = [[list(X.edge_coeff(t, e)) for e in range(3)]
                  for t in range(X.n_triangles)]
        return X, tri, coords

    def test_coords_without_parameter_axis(self):
        X, tri, _ = self.edges_and_coords()
        with pytest.raises(SurfaceError, match="shape"):
            TranslationSurface(tri, X.gluings, np.zeros((X.n_triangles, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5, "1"])
    def test_coords_not_integers(self, bad):
        X, tri, coords = self.edges_and_coords()
        coords[1][2][3] = bad
        with pytest.raises(SurfaceError, match="not an integer"):
            TranslationSurface(tri, X.gluings, coords)

    def test_integral_floats_are_integers(self):
        X, tri, coords = self.edges_and_coords()
        Y = TranslationSurface(tri, X.gluings, np.asarray(coords, dtype=float))
        assert np.array_equal(Y._tables.coeffs, X._tables.coeffs)
        assert Y._tables.coeffs.dtype == np.int64

    @pytest.mark.parametrize("c", [2**63 - 1, -(2**63 - 1), 2**63, -2**63])
    def test_int64_bound(self, c):
        """Coefficients are stored as int64: |c| < 2**63 is kept exactly, any
        other raises a SurfaceError naming it."""
        X, tri, coords = self.edges_and_coords()
        coords[1][2][3] = c
        if abs(c) < 2**63:
            Y = TranslationSurface(tri, X.gluings, coords)
            assert Y.edge_coeff(1, 2)[3] == c
            assert Y._tables.coeffs.dtype == np.int64
        else:
            with pytest.raises(SurfaceError, match=str(2**63)):
                TranslationSurface(tri, X.gluings, coords)


class TestArea:
    def test_unit_square(self):
        assert abs(square_torus().area() - 1.0) < 1e-15

    def test_lattice_area_is_im_tau(self):
        tau = 0.3 + 1.7j
        X = torus(1 + 0j, tau)
        assert abs(X.area() - tau.imag) < 1e-12

    def test_regular_octagon_circumradius_one(self):
        pts = [complex(math.cos(2 * math.pi * k / 8 + math.pi / 8),
                       math.sin(2 * math.pi * k / 8 + math.pi / 8))
               for k in range(8)]
        z = [pts[k + 1] - pts[k] for k in range(4)]
        X = octagon_surface(z)
        assert X.validate(StratumSignature((2,))).ok
        assert abs(X.area() - 2 * math.sqrt(2)) < 1e-12

    def test_scaling_is_quadratic(self):
        X = octagon_surface()
        s = 0.37
        assert abs(X.rescaled(s).area() - s * s * X.area()) < 1e-12


class TestMapped:
    def test_keeps_chart_coordinates(self):
        X = octagon_surface()
        Y = X.mapped([[2.0, 1.0], [1.0, 1.0]])
        assert Y.has_coords and Y.gluings == X.gluings
        assert all(Y.edge_coeff(t, e) == X.edge_coeff(t, e)
                   for t in range(X.n_triangles) for e in range(3))
        assert Y.edge(0, 0) == complex(2 * X.edge(0, 0).real + X.edge(0, 0).imag,
                                       X.edge(0, 0).real + X.edge(0, 0).imag)
        assert abs(Y.area() - X.area()) < 1e-12

    def test_bit_for_bit_scalar_arithmetic(self):
        """``mapped`` and ``rescaled`` are the per-edge Python arithmetic
        complex(m00 x + m01 y, m10 x + m11 y) and s * z, signed zeros too."""
        rng = np.random.default_rng(19)
        chart = get_chart("h2-octagon")
        surfaces = [octagon_surface()]
        while len(surfaces) < 40:
            z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            if chart.admissible(z):
                surfaces.append(chart.build(z))
        maps = [[[0.0, -1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 1.0]]]
        maps += [m for m in rng.normal(size=(20, 2, 2)).tolist()
                 if m[0][0] * m[1][1] - m[0][1] * m[1][0] > 0]
        scales = [0.5, 0.37, 3.0, 1e-3] + rng.uniform(0.01, 10, 8).tolist()

        def bits(X):
            return np.asarray([[X.edge(t, e) for e in range(3)]
                               for t in range(X.n_triangles)]).view(np.uint64)

        for X in surfaces:
            edges = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
            for m in maps:
                (m00, m01), (m10, m11) = m
                want = [[complex(m00 * z.real + m01 * z.imag,
                                 m10 * z.real + m11 * z.imag) for z in row]
                        for row in edges]
                got = X.mapped(m)
                assert got._tables is X._tables
                assert np.array_equal(bits(got),
                                      np.asarray(want).view(np.uint64))
            for scale in scales:
                want = [[scale * z for z in row] for row in edges]
                assert np.array_equal(bits(X.rescaled(scale)),
                                      np.asarray(want).view(np.uint64))

    @pytest.mark.parametrize("m", [
        [[1.0, 0.0], [0.0, -1.0]],         # reflection
        [[1.0, 2.0], [0.5, 1.0]],          # singular
        [[0.0, 0.0], [0.0, 0.0]],
        [[float("nan"), 0.0], [0.0, 1.0]],
        [[float("inf"), 0.0], [0.0, 1.0]],
    ])
    def test_rejects_orientation_reversing_or_degenerate(self, m):
        with pytest.raises(SurfaceError):
            octagon_surface().mapped(m)


class TestPolygons:
    def test_simplicity_rejects_selfintersecting(self):
        z = [1 + 0j, -1 + 0j, 1 + 0j, -1 + 0j]
        with pytest.raises(SurfaceError):
            octagon_surface(z)

    def test_ear_clip_covers_area(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = [complex(*rng.uniform(-2, 2, 2)) for _ in range(4)]
            verts = [0j]
            for w in z + [-w for w in z]:
                verts.append(verts[-1] + w)
            verts = verts[:-1]
            if not (polygon_simple_mask(verts)[0] and shoelace_area(verts) > 0):
                continue
            tris = ear_clip(verts)
            assert len(tris) == 6
            total = sum(
                shoelace_area([verts[a], verts[b], verts[c]])
                for a, b, c in tris)
            assert abs(total - shoelace_area(verts)) < 1e-9

    def test_vertices_and_area_of_one_polygon_or_a_stack(self):
        """One polygon gives the row of a stack bit for bit, and its
        vertices are the partial sums 0, z_1, z_1 + z_2, ... from the left."""
        rng = np.random.default_rng(23)
        sides = rng.uniform(-2, 2, (3, 5, 4)) + 1j * rng.uniform(-2, 2, (3, 5, 4))
        verts, area = symmetric_vertices(sides), shoelace_area(
            symmetric_vertices(sides))
        assert verts.shape == (3, 5, 8) and area.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                z = sides[i, j].tolist()
                want = [0j]
                for w in z + [-w for w in z[:-1]]:
                    want.append(want[-1] + w)
                one = symmetric_vertices(z)
                assert np.array_equal(one.view(np.uint64),
                                      np.asarray(want).view(np.uint64))
                assert np.array_equal(one.view(np.uint64),
                                      verts[i, j].view(np.uint64))
                assert shoelace_area(one) == area[i, j]

    def test_degenerate_lattice_inadmissible(self):
        with pytest.raises(SurfaceError):
            torus(1 + 0j, 1 + 0j)

    @pytest.mark.parametrize("sides, message", [
        ([1, 1], "polygon is not simple"),                # folded quadrilateral
        ([1, 1j, 1, 1j], "polygon is not simple"),        # repeats vertex 1+1j
        ([1j, 1], "not positively oriented"),             # clockwise square
        ([1, 1 - 1j, -1j, -1 - 1j], "not positively oriented"),
    ])
    @pytest.mark.parametrize("container", [list, tuple, np.array])
    def test_unchecked_sides_are_checked(self, sides, message, container):
        z = container([complex(w) for w in sides])
        with pytest.raises(SurfaceError, match=message):
            surface_from_symmetric_polygon(z)
        chart = get_chart("torus" if len(sides) == 2 else "h2-octagon")
        with pytest.raises(SurfaceError, match=message):
            chart.build(z)


class TestJsonRoundTrip:
    def test_bit_exact(self):
        X = octagon_surface()
        text = X.to_json()
        Y = TranslationSurface.from_json(text)
        assert Y.to_json() == text
        for t in range(X.n_triangles):
            for e in range(3):
                assert Y.edge(t, e) == X.edge(t, e)
        assert Y.gluings == X.gluings

    @pytest.mark.parametrize("surface, pairs", [
        (square_torus, [[[0, 0], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]),
        (octagon_surface,
         [[[0, 0], [3, 1]], [[0, 1], [4, 1]], [[0, 2], [1, 0]],
          [[1, 1], [5, 0]], [[1, 2], [2, 0]], [[2, 1], [5, 1]],
          [[2, 2], [3, 0]], [[3, 2], [4, 0]], [[4, 2], [5, 2]]]),
    ])
    def test_gluing_pairs_are_pinned(self, surface, pairs):
        """Each glued pair once, lesser edge first, in the order of it."""
        assert json.loads(surface().to_json())["gluings"] == pairs

    @pytest.mark.parametrize("edit", [
        lambda d: d["gluings"].__setitem__(0, [[0], [1, 0]]),
        lambda d: d.pop("gluings"),
        lambda d: d["triangles"][0].__setitem__(0, [1]),
        lambda d: d["gluings"].__setitem__(0, [[0, 0, 5], [1, 0]]),
        "not json",
        "null",
    ], ids=["short-edge", "no-gluings", "short-vertex", "long-edge",
            "not-json", "null"])
    def test_malformed_text_is_rejected(self, edit):
        if isinstance(edit, str):
            text = edit
        else:
            data = json.loads(square_torus().to_json())
            edit(data)
            text = json.dumps(data)
        with pytest.raises(SurfaceError):
            TranslationSurface.from_json(text)


def _reference_gluings(n, tris):
    """Opposite-side gluings of a triangulated symmetric 2n-gon, derived
    independently of the builder."""
    m = 2 * n
    where = {(vs[k], vs[(k + 1) % 3]): (t, k)
             for t, vs in enumerate(tris) for k in range(3)}

    def partner(a, b):
        return (b, a) if (b, a) in where else ((a + n) % m, (b + n) % m)

    return {where[ab]: where[partner(*ab)] for ab in where}


def union_find_vertices(n_triangles, gluings):
    """Vertex id of each corner h = 3 t + e by union-find: gluing (t, e) to
    (t2, e2) joins corner e of t with corner e2 + 1 of t2, and the vertices
    are numbered in the order of their least corners."""
    parent = list(range(3 * n_triangles))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (t, e), (t2, e2) in gluings.items():
        for x, y in ((3 * t + e, 3 * t2 + (e2 + 1) % 3),
                     (3 * t + (e + 1) % 3, 3 * t2 + e2)):
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    roots = [find(x) for x in range(3 * n_triangles)]
    ids = {r: i for i, r in enumerate(sorted(set(roots)))}
    return [ids[r] for r in roots]


class TestSymmetricPolygonGluings:
    """``symmetric_polygon_gluings`` on Delaunay triangulations of a
    symmetric polygon with random interior points: the square torus (its
    corners are one point, c = 1) and the regular hexagon (c = 2)."""

    @pytest.mark.parametrize("sides, c", [
        ([1 + 0j, 1j], 1),
        ([cmath.exp(1j * math.pi * k / 3) for k in range(3)], 2),
    ], ids=["square", "hexagon"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_equals_reference_and_validates(self, sides, c, k):
        from scipy.spatial import Delaunay

        corners = symmetric_vertices(sides)
        n = len(sides)
        rng = np.random.default_rng(100 * n + k)
        lo = np.array([corners.real.min(), corners.imag.min()])
        hi = np.array([corners.real.max(), corners.imag.max()])
        step = np.roll(corners, -1) - corners
        for _ in range(20):
            inner = []
            while len(inner) < k:
                x, y = rng.uniform(lo, hi)
                z = complex(x, y)
                # strictly inside: left of every side by a margin
                if (step.real * (z - corners).imag
                        - step.imag * (z - corners).real > 1e-3).all():
                    inner.append(z)
            pts = [*corners.tolist(), *inner]
            xy = [[z.real, z.imag] for z in pts]
            tris = []
            for a, b, d in Delaunay(xy).simplices.tolist():
                u, v = pts[b] - pts[a], pts[d] - pts[a]
                tris.append((a, b, d) if u.real * v.imag - u.imag * v.real > 0
                            else (a, d, b))
            gluings = symmetric_polygon_gluings(n, tris)
            assert gluings == _reference_gluings(n, tris)
            X = TranslationSurface(
                [[pts[b] - pts[a], pts[d] - pts[b], pts[a] - pts[d]]
                 for a, b, d in tris], gluings)
            assert X.validate(StratumSignature((0,) * (c + k))).ok

    def test_edge_without_partner(self):
        # a square cut by one diagonal read as a hexagon: sides 2..5 absent
        with pytest.raises(SurfaceError, match="no edge"):
            symmetric_polygon_gluings(3, [(0, 1, 2), (0, 2, 3)])


class TestCornerVertices:
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_union_find_on_random_gluings(self, seed):
        """The vectorised cycle labels of the tables number the vertices as
        a union-find over the gluings does, for random fixed-point free
        involutions of up to 120 half-edges."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            T = 2 * int(rng.integers(1, 21))
            gl = {}
            for a, b in rng.permutation(3 * T).reshape(-1, 2).tolist():
                gl[divmod(a, 3)], gl[divmod(b, 3)] = divmod(b, 3), divmod(a, 3)
            tables = _surface_tables(T, gl)
            want = union_find_vertices(T, gl)
            assert tables.corner_vertex.tolist() == want
            assert tables.n_vertices == max(want) + 1


class TestMemoisedBuild:
    """Builds share memoised combinatorics per (n, ear-clip triples, rows)."""

    @pytest.mark.parametrize("name, sig, count, min_types", [
        ("torus", StratumSignature((0,)), 300, 1),  # ear clipping cuts corner 0
        ("h2-octagon", StratumSignature((2,)), 300, 10),
    ])
    def test_cached_tables_match_a_fresh_surface(self, name, sig, count, min_types):
        chart = get_chart(name)
        rng = np.random.default_rng(11)
        types = set()
        built = 0
        while built < count:
            z = list(rng.uniform(-2, 2, chart.dim) + 1j * rng.uniform(-2, 2, chart.dim))
            if not chart.admissible(z):
                continue
            built += 1
            X = chart.build(z)
            tris = tuple(ear_clip(chart.polygon_vertices(z)))
            types.add(tris)
            assert X.validate(sig).ok
            assert X.gluings == _reference_gluings(chart.dim, tris)
            for t in range(X.n_triangles):
                for e in range(3):
                    period = sum(c * w for c, w in zip(X.edge_coeff(t, e), z))
                    assert abs(X.edge(t, e) - period) < 1e-12
            edges = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
            coords = [[X.edge_coeff(t, e) for e in range(3)]
                      for t in range(X.n_triangles)]
            Y = TranslationSurface(edges, X.gluings, coords)
            for name in ("neighbor", "corner_vertex", "coeffs"):
                assert np.array_equal(getattr(X._tables, name),
                                      getattr(Y._tables, name))
            assert X.n_vertices == Y.n_vertices
        assert len(types) >= min_types

    def test_same_triangulation_shares_tables(self):
        X = square_torus()
        Y = torus(1.0 + 0.1j, 0.2 + 1j)
        assert X._tables is Y._tables
        assert X.edge(0, 0) != Y.edge(0, 0)

    def test_tables_are_read_only(self):
        """Surfaces share their tables, so no table can be written: those of
        the constructor, of ``chart.build`` and of ``build_batch``.  The
        ``gluings`` a surface returns are a fresh dict."""
        chart = get_chart("h2-octagon")
        z = np.asarray(OCTAGON_Z)
        X = chart.build(z)
        Y = TranslationSurface(
            [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)],
            X.gluings, [[X.edge_coeff(t, e) for e in range(3)]
                        for t in range(X.n_triangles)])
        batch, built = chart.build_batch(z[None])
        assert built.all()
        for tables in (X._tables, Y._tables, batch.tables[0]):
            for name in ("neighbor", "corner_vertex", "coeffs"):
                a = getattr(tables, name)
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[1]
        gluings = X.gluings
        gluings[(0, 0)] = (0, 1)
        assert X.gluings[(0, 0)] != (0, 1) and X.gluings == Y.gluings

    def test_rescaled_keeps_tables(self):
        X = octagon_surface()
        Y = X.rescaled(0.5)
        assert Y._tables is X._tables
        assert Y.edge(1, 2) == 0.5 * X.edge(1, 2)
        assert Y.validate(StratumSignature((2,))).ok


def _cross_exact(a, b):
    return a.real * b.imag - a.imag * b.real


def _on_segment(p, a, b):
    return (_cross_exact(b - a, p - a) == 0
            and min(a.real, b.real) <= p.real <= max(a.real, b.real)
            and min(a.imag, b.imag) <= p.imag <= max(a.imag, b.imag))


def _segments_meet(a, b, c, d):
    """Closed segments [a, b] and [c, d] share a point (sign predicates)."""
    d1 = _cross_exact(b - a, c - a)
    d2 = _cross_exact(b - a, d - a)
    d3 = _cross_exact(d - c, a - c)
    d4 = _cross_exact(d - c, b - c)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return True
    return (_on_segment(c, a, b) or _on_segment(d, a, b)
            or _on_segment(a, c, d) or _on_segment(b, c, d))


def _brute_force_simple(vs):
    """Pairwise segment test: no zero edge, no contact between non-adjacent
    edges, no adjacent edges folding back over each other."""
    m = len(vs)
    edges = [(vs[i], vs[(i + 1) % m]) for i in range(m)]
    if any(a == b for a, b in edges):
        return False
    for i in range(m):
        a, b = edges[i - 1]
        c, d = edges[i]  # b == c
        u, w = b - a, d - c
        if _cross_exact(u, w) == 0 and u.real * w.real + u.imag * w.imag < 0:
            return False
    for i in range(m):
        for j in range(i + 2, m):
            if not (i == 0 and j == m - 1) and _segments_meet(*edges[i], *edges[j]):
                return False
    return True


def _mask_batch(m, rows, rng):
    """Random polygons (star-shaped, centrally symmetric, arbitrary) with
    touching, folded and degenerate ones at the block boundaries."""
    out = []
    for r in range(rows):
        kind = r % 3
        if kind == 0:  # star-shaped about the origin: simple
            ang = np.sort(rng.uniform(0, 2 * np.pi, m))
            out.append(rng.uniform(0.5, 2, m) * np.exp(1j * ang))
        elif kind == 1:  # centrally symmetric, like a chart sample
            z = rng.uniform(-2, 2, m // 2) + 1j * rng.uniform(-2, 2, m // 2)
            out.append(np.cumsum(np.concatenate([[0], z, -z[:-1]])))
        else:
            out.append(rng.uniform(-2, 2, m) + 1j * rng.uniform(-2, 2, m))
    convex = [complex(round(8 * np.cos(np.pi * (2 * k + 1) / m)),
                      round(8 * np.sin(np.pi * (2 * k + 1) / m))) for k in range(m)]
    touching = list(convex)
    touching[0] = 0.5 * (convex[2] + convex[3])  # vertex on a far edge
    pinched = list(convex)
    pinched[0] = convex[m // 2]                  # passes a vertex twice
    folded = list(convex)
    folded[2] = 0.5 * (convex[0] + convex[1])    # edge 1 runs back along edge 0
    degenerate = list(convex)
    degenerate[1] = convex[0]                    # zero-length edge
    block = MASK_BLOCK
    placed = {0: touching, 1: folded, 2: convex, block - 1: pinched,
              block: folded, block + 1: degenerate, 2 * block - 1: touching,
              3 * block: pinched, rows - 1: degenerate}
    for pos, poly in placed.items():
        if pos < rows:
            out[pos] = np.asarray(poly)
    for pos in _near_rows(rows):
        out[pos] = _near_touching(convex)
    return np.asarray(out, dtype=complex)


def _near_rows(rows):
    return [pos for pos in (2 * MASK_BLOCK + 5, rows - 2) if 2 < pos < rows - 1]


def _near_touching(convex):
    """A large polygon whose vertex 0 stops 1e-12 of its size short of a far
    edge: strictly simple, but inside the mask's relative tolerance, which
    only its own row's scale puts there."""
    big = [1000 * v for v in convex]
    mid = 0.5 * (big[2] + big[3])
    big[0] = mid - 1e-8 * mid / abs(mid)
    return np.asarray(big)


class TestSimpleMask:
    @pytest.mark.parametrize("m", [4, 6, 8, 10])
    def test_blocks_match_rows_and_brute_force(self, m):
        rng = np.random.default_rng(m)
        rows = 3 * MASK_BLOCK + 7
        verts = _mask_batch(m, rows, rng)
        by_row = np.array([polygon_simple_mask(v[None, :])[0] for v in verts])
        brute = np.array([_brute_force_simple([complex(x) for x in v])
                          for v in verts])
        near = _near_rows(rows)
        assert brute[near].all() and not by_row[near].any()
        brute[near] = False
        assert (by_row == brute).all()
        assert 0 < brute.sum() < rows
        for size in (1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, rows):
            batch = polygon_simple_mask(verts[:size])
            assert batch.dtype == bool and batch.shape == (size,)
            assert (batch == by_row[:size]).all()

    @pytest.mark.parametrize("m", [4, 8])
    def test_special_polygons(self, m):
        verts = _mask_batch(m, MASK_BLOCK + 2, np.random.default_rng(0))
        special = verts[[0, 1, 2, MASK_BLOCK - 1, MASK_BLOCK + 1]]
        want = [False, False, True, False, False]
        assert polygon_simple_mask(special).tolist() == want
        assert [_brute_force_simple(list(v)) for v in special] == want
        assert polygon_simple_mask([0, 1, 1 + 1j, 1j])[0]
        assert not polygon_simple_mask([0, 2, 1, 1 + 1j])[0]  # folds back at 2

    def test_collinear_disjoint_edges(self):
        # U shape: edges 0 (0 -> 1) and 4 (2 -> 3) lie on one line apart
        u_shape = [0, 1, 1 + 1j, 2 + 1j, 2, 3, 3 + 2j, 2j]
        assert polygon_simple_mask(u_shape)[0]
        assert _brute_force_simple([complex(v) for v in u_shape])
        # the same edges overlapping on [1, 2], or touching at 1
        overlap = [0, 2, 2 + 1j, 1 + 1j, 1, 3, 3 + 2j, 2j]
        touch = [0, 1, 1 + 1j, 2 + 1j, 1, 3, 3 + 2j, 2j]
        for poly in (overlap, touch):
            assert not polygon_simple_mask(poly)[0]
            assert not _brute_force_simple([complex(v) for v in poly])

    def test_collinear_rows_in_a_batch(self):
        u_shape = np.asarray([0, 1, 1 + 1j, 2 + 1j, 2, 3, 3 + 2j, 2j])
        overlap = np.asarray([0, 2, 2 + 1j, 1 + 1j, 1, 3, 3 + 2j, 2j])
        verts = _mask_batch(8, 2 * MASK_BLOCK + 3, np.random.default_rng(1))
        want = polygon_simple_mask(verts)
        for pos, poly, simple in ((5, u_shape, True), (MASK_BLOCK, overlap, False),
                                  (MASK_BLOCK + 1, 7.5 * u_shape - 3j, True)):
            verts[pos] = poly
            want[pos] = simple
        assert polygon_simple_mask(verts).tolist() == want.tolist()


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=80)
SUBSPACE_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


def assert_ear_clip_batch_is_scalar(verts):
    """ear_clip_batch gives every row the index triples of the scalar ear
    clip, and fails on exactly the rows where it raises."""
    verts = np.asarray(verts, dtype=complex)
    tris, ok = ear_clip_batch(verts)
    assert tris.shape == (len(verts), verts.shape[1] - 2, 3)
    failures = 0
    for row, got, built in zip(verts.tolist(), tris.tolist(), ok.tolist()):
        try:
            want = scalar_ear_clip(row)
        except SurfaceError:
            assert not built
            failures += 1
            continue
        assert built and [tuple(t) for t in got] == want
    return failures


_part = st.floats(-2.0, 2.0, allow_nan=False)
_point = st.builds(complex, _part, _part)


def _symmetric_rows(dim):
    """Vertices of batches of centrally symmetric polygons, every row a
    chart sample as the box draws it (most are not simple)."""
    row = st.lists(_point, min_size=dim, max_size=dim)
    return st.lists(row, min_size=1, max_size=24).map(
        lambda rows: symmetric_vertices(np.asarray(rows, dtype=complex)))


@st.composite
def _grid_polygons(draw):
    """Batches of m-gons, m in 3..10, on a small integer grid: many have
    collinear, repeated or coincident vertices."""
    m = draw(st.integers(3, 10))
    coord = st.integers(-2, 2)
    vertex = st.builds(complex, coord, coord)
    rows = draw(st.lists(st.lists(vertex, min_size=m, max_size=m),
                         min_size=1, max_size=16))
    return np.asarray(rows, dtype=complex)


@st.composite
def _star_polygons(draw):
    """Batches of mostly non-convex polygons with 10 vertices, in order of
    angle about the origin: simple when no gap between angles exceeds pi."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        angles = draw(st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True),
                               min_size=10, max_size=10, unique=True))
        radii = draw(st.lists(st.floats(0.1, 2.0), min_size=10, max_size=10))
        rows.append(np.asarray(radii) * np.exp(1j * np.sort(angles)))
    return np.asarray(rows)


class TestEarClipBatch:
    @pytest.mark.parametrize("name, seed", [
        ("torus", 1), ("torus", 2), ("h2-octagon", 1), ("h2-octagon", 2)])
    def test_scan_chunk_rows(self, name, seed):
        """The unit-area rows a scan chunk builds; many octagons among them
        are not convex."""
        chart = get_chart(name)
        rng = sampling._chunk_generator(seed, 0)
        x = sampling._sample_params(rng, 16384, chart.dim, chart.half_width)
        area, unit, admissible = sampling._unit_area_check(x)
        verts = symmetric_vertices(unit[admissible])
        assert assert_ear_clip_batch_is_scalar(verts) == 0
        if name == "h2-octagon":
            e = np.roll(verts, -1, axis=1) - verts
            turn = (np.roll(e, 1, axis=1).conj() * e).imag
            assert (turn < 0).any(axis=1).sum() > 100  # reflex corners

    @PROPERTY
    @given(_symmetric_rows(2))
    def test_tori(self, verts):
        assert_ear_clip_batch_is_scalar(verts)

    @PROPERTY
    @given(_symmetric_rows(4))
    def test_octagons(self, verts):
        assert_ear_clip_batch_is_scalar(verts)

    @PROPERTY
    @given(st.lists(st.lists(_point, min_size=2, max_size=2), min_size=1,
                    max_size=24))
    def test_subspace_octagons(self, w):
        x = np.asarray(w, dtype=complex) @ SUBSPACE_BASIS.T
        assert_ear_clip_batch_is_scalar(symmetric_vertices(x))

    @PROPERTY
    @given(_grid_polygons())
    @example(np.array([[0, 1, 2, 2 + 1j, 1j]]))             # collinear vertex
    @example(np.array([[0, 1, 2, 3]]))                      # all on a line
    @example(np.array([[0, 0, 0, 0], [1, 1, 1j, 1j]]))      # coincident
    @example(np.array([[0, 1, 1 + 1j, 1j, 1, 1 + 1j]]))     # repeated edge
    @example(np.array([[0, 1, 1j]]))                        # a triangle
    # ties at the tolerance, eps = 1e-12 here: corner 0 turns by exactly
    # eps; vertex 2 lies exactly -eps across an edge of the ear at corner 0
    @example(np.array([[1, 1 + 1e-12j, 0.5 + 0.8j, 0],
                       [1, 1j, -1e-12 + 0.5j, 0],
                       [1, 1j, 0.5 - 1e-12j, 0]]))
    def test_collinear_and_degenerate(self, verts):
        assert_ear_clip_batch_is_scalar(verts)

    @PROPERTY
    @given(_star_polygons())
    def test_ten_gons(self, verts):
        assert_ear_clip_batch_is_scalar(verts)

    @PROPERTY
    @given(_symmetric_rows(5))
    def test_decagons(self, verts):
        assert_ear_clip_batch_is_scalar(verts)

    def test_failures_are_seen(self):
        verts = [[0, 1, 2, 3], [0, 1, 1 + 1j, 1j]]
        assert assert_ear_clip_batch_is_scalar(verts) == 1
        assert ear_clip(verts[1]) == [(3, 0, 1), (1, 2, 3)]
        with pytest.raises(SurfaceError, match="no ear found"):
            ear_clip(verts[0])
        with pytest.raises(SurfaceError, match="at least 3 vertices"):
            ear_clip([0, 1])


@st.composite
def _unit_area_bases(draw):
    """Up to 40 unit-area lattice bases (u, v = u (s + i / |u|^2)), with
    |u| from 1/170 to 170 and |v| up to about 170, as long and thin as the
    unit-area rescale of a box sample can make them."""
    m = draw(st.integers(1, 40))
    size = draw(st.lists(st.floats(-math.log(170), math.log(170)),
                         min_size=m, max_size=m))
    angle = draw(st.lists(st.floats(0, 2 * math.pi), min_size=m, max_size=m))
    shear = draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m))
    r = np.exp(size)
    u = r * np.exp(1j * np.asarray(angle))
    v = u * (np.asarray(shear) * 170 / r + 1j / (r * r))
    return np.stack([u, v], axis=1)


def _exact_products(basis, sides):
    """B (u, v) of each row, summed exactly from the float sides and then
    rounded once."""
    out = []
    for b, row in zip(basis.tolist(), sides.tolist()):
        parts = [(Fraction(w.real), Fraction(w.imag)) for w in row]
        out.append([complex(float(sum(c * x for c, (x, _) in zip(bi, parts))),
                            float(sum(c * y for c, (_, y) in zip(bi, parts))))
                    for bi in b])
    return np.asarray(out, dtype=complex)


class TestLatticeReduction:
    """``reduce_lattice_bases`` gives a reduced basis of the same lattice,
    with the same orientation."""

    @PROPERTY
    @given(_unit_area_bases())
    @example(np.array([[167.0 + 0.2j, 167.001 + 0.206j], [1j, -1.0 + 0j]]))
    def test_reduced_bases(self, sides):
        reduced, basis = reduce_lattice_bases(sides)
        assert basis.dtype == np.int64 and basis.shape == (len(sides), 2, 2)
        det = basis[:, 0, 0] * basis[:, 1, 1] - basis[:, 0, 1] * basis[:, 1, 0]
        assert (det == 1).all()
        # the sides are B (u, v), rounded as a product of the given sides;
        # a reduced side can be far shorter than the terms summed into it,
        # so its rounding error is bounded by those terms
        exact = _exact_products(basis, sides)
        terms = np.abs(basis) @ np.abs(sides)[:, :, None]
        assert (np.abs(reduced - exact) <= 1e-15 * terms[:, :, 0]).all()
        u, v = reduced[:, 0], reduced[:, 1]
        assert (abs(u) <= abs(v) * (1 + 1e-9)).all()
        shear = abs(u.real * v.real + u.imag * v.imag)
        assert (shear <= abs(u) ** 2 * (0.5 + 1e-9)).all()
        # the lattice and its orientation are kept: the area is unchanged
        area = (u.conjugate() * v).imag
        want = (sides[:, 0].conjugate() * sides[:, 1]).imag
        assert np.allclose(area, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("sides, basis, reduced", [
        # already reduced: kept as it is
        ([1 + 0j, 0.3 + 1j], [[1, 0], [0, 1]], [1 + 0j, 0.3 + 1j]),
        ([1.5j, -2 + 0j], [[1, 0], [0, 1]], [1.5j, -2 + 0j]),
        # v - 7 u = i
        ([1 + 0j, 7 + 1j], [[1, 0], [-7, 1]], [1 + 0j, 1j]),
        # the longer u is swapped to (v, -u) = (i, -7 - i), which keeps the
        # orientation, and then -7 - i + i = -7
        ([7 + 1j, 1j], [[0, 1], [-1, 1]], [1j, -7 + 0j]),
    ])
    def test_known_reductions(self, sides, basis, reduced):
        got, B = reduce_lattice_bases([sides])
        assert B.tolist() == [basis] and got.tolist() == [reduced]

    @pytest.mark.parametrize("sides", [
        [[1 + 0j, 2 + 0j]],                 # degenerate
        [[1j, 1 + 0j]],                     # clockwise
        [[1 + 0j, complex(math.nan, 1)]],
        [[complex(math.inf, 0), 1j]],
    ], ids=["degenerate", "clockwise", "nan", "inf"])
    def test_bad_bases_rejected(self, sides):
        with pytest.raises(ValueError, match="finite and positively oriented"):
            reduce_lattice_bases(sides)
