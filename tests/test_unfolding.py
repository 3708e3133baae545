import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from flatscale.families import (
    HorizontalCylinderFamily,
    MarkedTorusFamily,
    PlumbingParams,
)
from flatscale.homology import TAU_PARALLEL
from flatscale.surface import SurfaceBatch, SurfaceError, TranslationSurface
from flatscale.unfolding import (
    DEFAULT_BUDGET,
    PAIR_EPS,
    SaddleConnection,
    UnfoldingBudgetError,
    enumerate_saddle_connections,
    unfold_surfaces,
)

from scalar_unfolding import _seg_dist2 as scalar_seg_dist2
from scalar_unfolding import scalar_unfold
from test_surface import octagon_surface, square_torus, torus

SUBSPACE_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
# The node budget of the tests that draw from ``surfaces_for_batch``: a
# subspace octagon of small area can need over 10**6 nodes at L = 2, and
# the low budget keeps such an example short on both sides.
DRAWN_BUDGET = 50_000
# the error of a length bound that is not one real number; a repr may span lines
NOT_REAL = r"(?s)length_bound holds .* not a real number"


def primitive_vectors_of_lattice(m, L):
    """Primitive (p, q) with |p*u + q*v| <= L for the lattice with basis m."""
    inv = np.linalg.inv(m)
    pmax = int(math.ceil(np.linalg.norm(inv[0]) * L))
    qmax = int(math.ceil(np.linalg.norm(inv[1]) * L))
    out = []
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
                continue
            w = m @ (p, q)
            if w[0] * w[0] + w[1] * w[1] <= L * L:
                out.append((p, q))
    return out


def as_pair_set(connections):
    out = set()
    for sc in connections:
        h = sc.holonomy
        out.add((round(h.real, 8), round(h.imag, 8)))
        out.add((round(-h.real, 8), round(-h.imag, 8)))
    return out


def both_orientations(X, L, budget=DEFAULT_BUDGET):
    """Every oriented connection of X up to length L: each canonical
    connection and its reverse (holonomy -h, zeros swapped, class -c).
    ``TestReverses`` checks it against the scalar search over every
    direction."""
    out = []
    for sc in enumerate_saddle_connections(X, L, budget):
        c = sc.class_vector
        out += [sc, SaddleConnection(-sc.holonomy, sc.end_zero, sc.start_zero,
                                     None if c is None else tuple(-x for x in c))]
    return out


def develop_chain(surface, chain):
    """Redevelop a segment chain of the scalar search and return the apex
    displacement."""
    edge = surface.edge
    t0, c0 = chain[0]
    pos = {
        (t0, c0): 0j,
        (t0, (c0 + 1) % 3): edge(t0, c0),
        (t0, (c0 + 2) % 3): -edge(t0, (c0 + 2) % 3),
    }
    if len(chain) == 1:
        return pos[(t0, (c0 + 1) % 3)]
    prev = pos
    gl = surface.gluings
    for (t, e) in chain[1:]:
        tp, ep = gl[(t, e)]
        cur = {
            (t, e): prev[(tp, (ep + 1) % 3)],
            (t, (e + 1) % 3): prev[(tp, ep)],
        }
        cur[(t, (e + 2) % 3)] = cur[(t, (e + 1) % 3)] + edge(t, (e + 1) % 3)
        prev = cur
    t, e = chain[-1]
    return prev[(t, (e + 2) % 3)]


class TestSquareTorus:
    def test_small_bound(self):
        X = square_torus()
        scs = enumerate_saddle_connections(X, 1.5)
        assert as_pair_set(scs) == {
            (1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (-1, -1), (1, -1), (-1, 1),
        }

    def test_exhaustive_lattice_count(self):
        X = square_torus()
        scs = enumerate_saddle_connections(X, 30.0)
        assert 2 * len(scs) == len(primitive_vectors_of_lattice(np.eye(2), 30.0))

    def test_holonomies_match_lattice(self):
        X = square_torus()
        scs = enumerate_saddle_connections(X, 12.0)
        got = as_pair_set(scs)
        want = {(float(p), float(q))
                for p, q in primitive_vectors_of_lattice(np.eye(2), 12.0)}
        assert got == want

    def test_classes_match_holonomy(self):
        X = square_torus()
        for sc in enumerate_saddle_connections(X, 8.0):
            p, q = sc.class_vector
            assert sc.holonomy == pytest.approx(p * 1 + q * 1j, abs=1e-12)

    def test_below_shortest_is_empty(self):
        X = square_torus()
        assert enumerate_saddle_connections(X, 0.9) == []

    def test_length_is_the_holonomy_modulus(self):
        assert SaddleConnection(3 - 4j, 0, 0).length == 5.0
        for sc in enumerate_saddle_connections(square_torus(), 2.5):
            assert sc.length == abs(sc.holonomy)


class TestRandomTori:
    def test_lattice_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            # random unimodular shape, bounded distortion
            while True:
                a, b, c = rng.uniform(-1, 1, 3)
                m = np.array([[math.exp(a), b], [c, math.exp(-a) + b * c / math.exp(a)]])
                if abs(np.linalg.det(m) - 1) < 1e-12 and np.linalg.cond(m) < 6:
                    break
            u = complex(m[0, 0], m[1, 0])
            v = complex(m[0, 1], m[1, 1])
            if (u.real * v.imag - u.imag * v.real) < 0.1:
                continue
            X = torus(u, v)
            L = 30.0 / math.sqrt(np.linalg.cond(m))
            got = sorted(
                (round((p * u + q * v).real, 6), round((p * u + q * v).imag, 6))
                for p, q in (sc.class_vector
                             for sc in enumerate_saddle_connections(X, L)))
            want = sorted(
                (round(w.real, 6), round(w.imag, 6))
                for p, q in primitive_vectors_of_lattice(m, L)
                for w in [p * u + q * v]
                if (w.imag > 1e-12 * abs(w)
                    or (abs(w.imag) <= 1e-12 * abs(w) and w.real > 0)))
            assert got == want

    def test_scaling_equivariance(self):
        X = torus(1 + 0j, 0.25 + 1.3j)
        s = 0.6
        a = as_pair_set(enumerate_saddle_connections(X, 5.0))
        b = as_pair_set(enumerate_saddle_connections(X.rescaled(s), 5.0 * s))
        scaled = {(round(s * x, 6), round(s * y, 6)) for (x, y) in a}
        b6 = {(round(x, 6), round(y, 6)) for (x, y) in b}
        assert scaled == b6

    def test_sl2_equivariance(self):
        rng = np.random.default_rng(5)
        X = octagon_surface()
        L = 2.2
        base = enumerate_saddle_connections(X, 1.6 * L)
        for _ in range(3):
            g = np.eye(2) + rng.uniform(-0.08, 0.08, (2, 2))
            g /= math.sqrt(abs(np.linalg.det(g)))
            Y = X.mapped(g)
            got = as_pair_set(enumerate_saddle_connections(Y, L))
            mapped = set()
            for sc in base:
                h = sc.holonomy
                w = complex(g[0, 0] * h.real + g[0, 1] * h.imag,
                            g[1, 0] * h.real + g[1, 1] * h.imag)
                if abs(w) <= L:
                    mapped.add((round(w.real, 8), round(w.imag, 8)))
                    mapped.add((round(-w.real, 8), round(-w.imag, 8)))
            assert got == mapped


class TestOctagon:
    def test_chains_develop_to_holonomy(self):
        """The scalar search's chains, developed again, give the batch's
        holonomies in canonical order."""
        X = octagon_surface()
        scs = enumerate_saddle_connections(X, 3.0)
        ref, _ = scalar_unfold(X, 3.0)
        assert scs and len(ref) == len(scs)
        for sc, r in zip(scs, ref):
            dev = develop_chain(X, r.segment_chain)
            assert abs(dev - sc.holonomy) < 1e-9 * max(1.0, abs(sc.holonomy))

    def test_classes_reproduce_holonomy(self):
        z = [1 + 0j, 1 + 1j, 1j, -1 + 1j]
        X = octagon_surface(z)
        for sc in enumerate_saddle_connections(X, 3.0):
            hol = sum(c * w for c, w in zip(sc.class_vector, z))
            assert abs(hol - sc.holonomy) < 1e-9


class TestBudget:
    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -float("inf"),
                                       0.0, -0.0, -1.0, np.nan], ids=repr)
    def test_bound_not_finite_and_positive(self, bound):
        # nan once returned no connection, inf ran until the budget
        with pytest.raises(ValueError, match="length_bound must be finite and positive"):
            enumerate_saddle_connections(square_torus(), bound)
        with pytest.raises(ValueError, match="length_bound"):
            unfold_surfaces([square_torus(), octagon_surface()], bound)

    @pytest.mark.parametrize("bound", ["1.5", True, np.True_, 1.5j, None, [1.5],
                                       np.ones(1)], ids=repr)
    def test_bound_not_a_real_number(self, bound):
        """One real number bounds the whole batch (``flatscale.checks``); a
        sequence is refused, even of one bound for one surface."""
        with pytest.raises(ValueError, match=NOT_REAL):
            enumerate_saddle_connections(square_torus(), bound)
        with pytest.raises(ValueError, match="length_bound"):
            unfold_surfaces([square_torus(), octagon_surface()], bound)

    def test_negative_budget(self):
        # budget=-5 once raised UnfoldingBudgetError("... budget of -5 nodes")
        for budget in (-5, -1):
            with pytest.raises(ValueError, match="budget must not be negative"):
                enumerate_saddle_connections(square_torus(), 1.5, budget=budget)
        with pytest.raises(UnfoldingBudgetError):
            enumerate_saddle_connections(square_torus(), 1.5, budget=0)

    def test_budget_error(self):
        X = square_torus()
        with pytest.raises(UnfoldingBudgetError):
            enumerate_saddle_connections(X, 500.0, budget=2000)

    @pytest.mark.parametrize("surface", [square_torus, octagon_surface])
    def test_budget_error_at_large_bound(self, surface):
        with pytest.raises(UnfoldingBudgetError):
            enumerate_saddle_connections(surface(), 60.0, budget=500)

    @pytest.mark.parametrize("budget", [True, False, np.True_, 2.5, 500.0,
                                        "5", None], ids=repr)
    def test_budget_not_an_integer(self, budget):
        # budget=True once raised "exceeded budget of True nodes", 2.5 was
        # accepted, and "5" and None raised bare TypeErrors
        with pytest.raises(ValueError, match="budget must be an integer"):
            enumerate_saddle_connections(square_torus(), 1.5, budget=budget)
        with pytest.raises(ValueError, match="budget must be an integer"):
            unfold_surfaces([square_torus(), octagon_surface()], 1.5,
                            budget=budget)


def fields(connections):
    return [(sc.holonomy, sc.start_zero, sc.end_zero, sc.class_vector)
            for sc in connections]


def kept(sc):
    """The canonical orientation of a +- pair (see _canonicalize)."""
    h = sc.holonomy
    if h.imag < -PAIR_EPS * abs(h):
        return False
    return not (abs(h.imag) <= PAIR_EPS * abs(h) and h.real < 0)


def unclipped_canonical(X, L):
    """Reference for the clipped canonical search: the scalar search over
    every direction, filtered to the canonical orientation afterwards."""
    both, _ = scalar_unfold(X, L, keep_orientations=True)
    return [sc for sc in both if kept(sc)]


def assert_clip_exact(X):
    for L in (1.0, 3.0 * math.sqrt(X.area())):
        got = enumerate_saddle_connections(X, L)
        assert fields(got) == fields(unclipped_canonical(X, L))


def star_octagon(angle0, weights, radii):
    """Centrally symmetric octagon, star-shaped about its centre with
    vertices in increasing angle, so always simple and positive."""
    gaps = math.pi * np.asarray(weights) / sum(weights)
    ang = angle0 + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    p = [r * cmath.exp(1j * a) for r, a in zip(radii, ang)] + [0j]
    p[4] = -p[0]
    return octagon_surface([p[k + 1] - p[k] for k in range(4)])


def subspace_octagon(seed):
    """Chart octagon whose sides lie on the real span of SUBSPACE_BASIS."""
    rng = np.random.default_rng(seed)
    while True:
        w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        try:
            return octagon_surface(list(SUBSPACE_BASIS @ w))
        except SurfaceError:
            continue


def horizontal(connections, tol=1e-8):
    return [sc for sc in connections
            if abs(sc.holonomy.imag) <= tol * abs(sc.holonomy)]


def regular_octagon():
    return octagon_surface([cmath.exp(1j * k * math.pi / 4) for k in range(4)])


def unit_regular_octagon():
    X = regular_octagon()
    return X.rescaled(1.0 / math.sqrt(X.area()))


unit = st.floats(0.2, 1.0)
radius = st.floats(0.3, 1.5)
angle = st.floats(0.0, 2 * math.pi)


class TestHalfPlaneClip:
    """The canonical search develops only directions down to DOWN below the
    real axis; its output must equal the scalar full search's, filtered to
    the canonical orientation, field for field."""

    @PROPERTY
    @given(r1=radius, r2=radius, a=angle, gap=st.floats(0.2, math.pi - 0.2))
    def test_random_tori(self, r1, r2, a, gap):
        assert_clip_exact(torus(r1 * cmath.exp(1j * a),
                                r2 * cmath.exp(1j * (a + gap))))

    @PROPERTY
    @given(a=angle, weights=st.lists(unit, min_size=4, max_size=4),
           radii=st.lists(st.floats(0.3, 1.0), min_size=4, max_size=4))
    def test_random_octagons(self, a, weights, radii):
        assert_clip_exact(star_octagon(a, weights, radii))

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_subspace_octagons(self, seed):
        assert_clip_exact(subspace_octagon(seed))

    @pytest.mark.parametrize("surface", [square_torus, regular_octagon,
                                         octagon_surface])
    def test_fixed_surfaces(self, surface):
        assert_clip_exact(surface())

    @pytest.mark.parametrize("tilt", [0.0, 1e-10, -1e-10])
    def test_horizontal_connections_survive(self, tilt):
        """Exactly horizontal connections, and connections tilted just above
        or below the axis, in both orientations."""
        rng = np.random.default_rng(7)
        surfaces = [square_torus(), regular_octagon()]
        while len(surfaces) < 8:
            X = star_octagon(rng.uniform(0, 2 * math.pi), rng.uniform(0.2, 1, 4),
                             rng.uniform(0.3, 1, 4))
            # side z_1 is the first edge of the first ear; this map sends it
            # to the positive real axis exactly
            z = X.edge(0, 0)
            surfaces.append(X.mapped([[z.real, z.imag], [-z.imag, z.real]]))
        c, s = math.cos(tilt), math.sin(tilt)
        for X in surfaces:
            if tilt:
                X = X.mapped([[c, -s], [s, c]])
            L = 3.0 * math.sqrt(X.area())
            flat = horizontal(scalar_unfold(X, L, keep_orientations=True)[0])
            want = [sc for sc in flat if kept(sc)]
            assert 2 * len(want) == len(flat) and want
            if not tilt:
                assert any(sc.holonomy.imag == 0.0 for sc in want)
            got = horizontal(enumerate_saddle_connections(X, L))
            assert fields(got) == fields(want)


class TestPackedClasses:
    def test_huge_coordinates(self):
        """Classes with coordinates near 1e12 equal the scalar search's
        classes, exact sums of Python ints, and the small classes mapped by
        the same matrix."""
        X = octagon_surface()
        rng = np.random.default_rng(3)
        M = [[int(x) for x in row]
             for row in rng.integers(-10**6, 10**6, (4, 5)) + 10**12]
        M[2] = [-x for x in M[2]]
        tris = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        coords = [[[sum(c * M[i][j] for i, c in enumerate(X.edge_coeff(t, e)))
                    for j in range(5)] for e in range(3)]
                  for t in range(X.n_triangles)]
        Y = TranslationSurface(tris, X.gluings, np.asarray(coords))
        assert SurfaceBatch.of([Y]).coeff_max > 10**12
        small = enumerate_saddle_connections(X, 4.0)
        big = enumerate_saddle_connections(Y, 4.0)
        assert [sc.holonomy for sc in big] == [sc.holonomy for sc in small]
        ref, _ = scalar_unfold(Y, 4.0)
        assert [sc.class_vector for sc in big] == [sc.class_vector for sc in ref]
        for sb, ss in zip(big, small):
            want = tuple(sum(c * M[i][j] for i, c in enumerate(ss.class_vector))
                         for j in range(5))
            assert sb.class_vector == want
            assert all(type(x) is int for x in sb.class_vector)

    def test_no_coordinates(self):
        O = octagon_surface()
        X = TranslationSurface(
            [[O.edge(t, e) for e in range(3)] for t in range(O.n_triangles)],
            O.gluings)
        scs = enumerate_saddle_connections(X, 3.0)
        assert scs and all(sc.class_vector is None for sc in scs)


class TestMultiplicity:
    """Homologous connections (the two boundaries of a cylinder) share their
    holonomy and class but are distinct; each is reported."""

    def test_regular_octagon_veech_directions(self):
        # every saddle-connection direction of the regular octagon is
        # completely periodic and carries sum(m_i + 1) = 3 connections
        X = regular_octagon()
        canon = enumerate_saddle_connections(X, 3.0)
        assert len(canon) == 32
        per_dir = Counter(round(cmath.phase(sc.holonomy) / (math.pi / 8), 6)
                          for sc in canon)
        assert all(per_dir[float(k)] == 3 for k in range(8))
        # the other directions reach only one connection below L = 3
        assert len(per_dir) == 16 and sum(per_dir.values()) == 32

    def test_twins_share_class(self):
        X = star_octagon(0.3, [0.5, 0.9, 0.4, 0.7], [0.8, 0.5, 1.0, 0.6])
        scs = enumerate_saddle_connections(X, 3.0 * math.sqrt(X.area()))
        groups = {}
        for sc in scs:
            key = (round(sc.holonomy.real, 7), round(sc.holonomy.imag, 7))
            groups.setdefault(key, []).append(sc)
        twins = [g for g in groups.values() if len(g) > 1]
        assert twins
        for g in twins:
            assert len({sc.class_vector for sc in g}) == 1

    def test_sl2z_counts(self):
        X = star_octagon(1.1, [0.6, 0.3, 0.8, 0.5], [0.7, 0.9, 0.4, 1.0])
        L = 2.5 * math.sqrt(X.area())
        # 3 L exceeds |g^-1| L for each g below
        base = both_orientations(X, 3.0 * L)
        for g in ([[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[2, 1], [1, 1]]):
            want = Counter()
            for sc in base:
                h = sc.holonomy
                w = complex(g[0][0] * h.real + g[0][1] * h.imag,
                            g[1][0] * h.real + g[1][1] * h.imag)
                if abs(w) <= L:
                    want[(round(w.real, 7), round(w.imag, 7))] += 1
            got = Counter(
                (round(sc.holonomy.real, 7), round(sc.holonomy.imag, 7))
                for sc in both_orientations(X.mapped(g), L))
            assert got == want

    def test_sl2z_classes(self):
        """A linear map keeps the chart coordinates, so each connection of
        X.mapped(g) has the class of its preimage on X."""
        X = star_octagon(0.7, [0.5, 0.8, 0.6, 0.9], [0.9, 0.4, 0.7, 0.5])
        L = 2.5 * math.sqrt(X.area())
        base = both_orientations(X, 3.0 * L)
        assert all(sc.class_vector is not None for sc in base)
        for g in ([[1, 1], [0, 1]], [[1, 0], [-1, 1]], [[2, 1], [1, 1]],
                  [[0, -1], [1, 0]]):
            want = Counter()
            for sc in base:
                h = sc.holonomy
                w = complex(g[0][0] * h.real + g[0][1] * h.imag,
                            g[1][0] * h.real + g[1][1] * h.imag)
                if abs(w) <= L:
                    want[(round(w.real, 7), round(w.imag, 7), sc.class_vector)] += 1
            Y = X.mapped(g)
            assert Y.has_coords
            got = Counter(
                (round(sc.holonomy.real, 7), round(sc.holonomy.imag, 7),
                 sc.class_vector)
                for sc in both_orientations(Y, L))
            assert got == want and want


def same_multiset(a, b, tol=1e-9):
    """Whether the complex multisets ``a`` and ``b`` pair up one to one
    within ``tol``: the cheapest pairing (by total distance) has every pair
    within ``tol``.  Equal holonomies from different developments may differ
    in the last bits, and a tolerance cannot split them as a rounding grid
    can."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return bool((dist[rows, cols] <= tol * max(1.0, np.abs(a).max(initial=0))).all())


def all_holonomies(X, L):
    """The holonomies of every oriented connection of X up to length L."""
    return np.array([sc.holonomy for sc in both_orientations(X, L)])


SHEARS = pytest.mark.parametrize("shear, veech", [
    (2 / math.tan(math.pi / 8), True),
    (2.0, False),
    (1 + math.sqrt(2), False),
], ids=["2cot(pi/8)", "2", "1+sqrt2"])


class TestVeechGroup:
    """The unit-area regular octagon is a lattice surface: its Veech group
    holds the rotation by pi/4 and the parabolic T = [[1, 2 cot(pi/8)],
    [0, 1]] (Veech 1989), each of which maps its holonomy multiset onto
    itself."""

    L = 3.0

    @pytest.fixture(scope="class")
    def holonomies(self):
        X = unit_regular_octagon()
        # |T^-1| < 5.1, so every connection that T maps within L is
        # within 5.1 L < 17 before
        small, big = all_holonomies(X, self.L), all_holonomies(X, 17.0)
        assert len(small) == 176 and len(big) == 6064
        return small, big

    @pytest.fixture(scope="class")
    def holonomies_at_two(self):
        X = unit_regular_octagon()
        # as at L = 3: 5.1 * 2 < 11
        small, big = all_holonomies(X, 2.0), all_holonomies(X, 11.0)
        assert len(small) == 80 and len(big) == 2512
        return small, big

    @pytest.mark.parametrize("k", range(1, 8))
    def test_rotation(self, holonomies, k):
        small, _ = holonomies
        assert same_multiset(small * cmath.exp(1j * k * math.pi / 4), small)

    @SHEARS
    def test_parabolic(self, holonomies, shear, veech):
        small, big = holonomies
        image = big + shear * big.imag
        image = image[np.abs(image) <= self.L]
        assert same_multiset(image, small) == veech
        if not veech:
            assert len(image) == 204

    @SHEARS
    def test_parabolic_at_radius_two(self, holonomies_at_two, shear, veech):
        small, big = holonomies_at_two
        image = big + shear * big.imag
        image = image[np.abs(image) <= 2.0]
        assert same_multiset(image, small) == veech

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cyclic_relabelling(self, holonomies, k):
        """The octagon built from the shifted sides (z_k+1, ..., z_4, -z_1,
        ..., -z_k) is the same surface, triangulated from another corner
        and in other chart coordinates: it has the same holonomies."""
        z = [cmath.exp(1j * j * math.pi / 4) for j in range(4)]
        Y = octagon_surface(z[k:] + [-w for w in z[:k]])
        Y = Y.rescaled(1.0 / math.sqrt(Y.area()))
        assert same_multiset(all_holonomies(Y, self.L), holonomies[0])

    @pytest.mark.parametrize("L, count", [(2.0, 80), (4.0, 336), (6.0, 768)])
    def test_least_cross_product(self, L, count):
        """|s_1 x s_2| is SL2(R)-invariant, and on the unit-area octagon its
        least value over non-parallel pairs of connections is sin^2(pi/8),
        reached already by connections shorter than 2."""
        h = all_holonomies(unit_regular_octagon(), L)
        cross = np.abs(h.real[:, None] * h.imag - h.imag[:, None] * h.real)
        apart = cross > TAU_PARALLEL * np.abs(h)[:, None] * np.abs(h)
        assert len(h) == count
        assert abs(cross[apart].min() - math.sin(math.pi / 8) ** 2) < 1e-12


def no_coordinates(X):
    """X without chart coordinates: its connections carry no class."""
    return TranslationSurface(
        [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)],
        X.gluings)


surfaces_for_batch = st.one_of(
    st.builds(lambda r1, r2, a, gap: torus(r1 * cmath.exp(1j * a),
                                           r2 * cmath.exp(1j * (a + gap))),
              radius, radius, angle, st.floats(0.2, math.pi - 0.2)),
    st.builds(star_octagon, angle, st.lists(unit, min_size=4, max_size=4),
              st.lists(st.floats(0.3, 1.0), min_size=4, max_size=4)),
    st.builds(subspace_octagon, st.integers(0, 2**32 - 1)),
    # shortest connection 4 > every L drawn below: nothing to report
    st.just(square_torus().rescaled(4.0)),
    st.builds(lambda s: no_coordinates(star_octagon(s, [0.5, 0.8, 0.6, 0.9],
                                                    [0.9, 0.4, 0.7, 0.5])),
              angle),
)


def assert_batch_is_concatenation(batch, singles):
    """Every field of the batch equals the batch-of-one results in turn."""
    assert batch.offsets.tolist() == np.cumsum(
        [0] + [s.offsets[-1] for s in singles]).tolist()
    assert batch.dims == tuple(s.dims[0] for s in singles)
    assert batch.nodes.tolist() == [s.nodes[0] for s in singles]
    for i, one in enumerate(singles):
        rows = slice(batch.offsets[i], batch.offsets[i + 1])
        for name in ("holonomy", "length", "start_zero", "end_zero"):
            got, want = getattr(batch, name)[rows], getattr(one, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        dim = one.dims[0] or 0
        assert np.array_equal(batch.classes[rows, :dim], one.classes[:, :dim])
        assert not batch.classes[rows, dim:].any()
        assert fields(batch.connections(i)) == fields(one.connections(0))


def assert_batch_equals_batches_of_one(surfaces, bound):
    """The batch of ``surfaces`` to ``bound`` equals their batches of one,
    or raises the budget error exactly when one of them does, at
    ``DRAWN_BUDGET``."""
    budget = DRAWN_BUDGET
    try:
        singles = [unfold_surfaces([X], bound, budget=budget) for X in surfaces]
    except UnfoldingBudgetError:
        with pytest.raises(UnfoldingBudgetError):
            unfold_surfaces(surfaces, bound, budget=budget)
        return
    assert_batch_is_concatenation(
        unfold_surfaces(surfaces, bound, budget=budget), singles)


def assert_equals_scalar(X, L, budget=DEFAULT_BUDGET):
    """The batch of one equals the scalar search bit for bit, nodes too,
    or both raise the budget error at ``budget``."""
    try:
        batch = unfold_surfaces([X], L, budget=budget)
    except UnfoldingBudgetError:
        with pytest.raises(UnfoldingBudgetError):
            scalar_unfold(X, L, budget=budget)
        return
    want, nodes = scalar_unfold(X, L, budget=budget)
    got = batch.connections(0)
    assert fields(got) == fields(want)
    assert ([bits(sc.holonomy) for sc in got]
            == [bits(sc.holonomy) for sc in want])
    assert batch.nodes.tolist() == [nodes]
    if nodes:
        with pytest.raises(UnfoldingBudgetError):
            unfold_surfaces([X], L, budget=nodes - 1)


def bits(z):
    return np.asarray([z.real, z.imag]).view(np.uint64).tolist()


FIXED_SURFACES = pytest.mark.parametrize("surface", [
    square_torus, regular_octagon, octagon_surface,
    lambda: torus(0.3 + 0j, 0.1 + 3.3j),
    lambda: star_octagon(0.3, [0.5, 0.9, 0.4, 0.7], [0.8, 0.5, 1.0, 0.6]),
    # The densest inputs: 852 and 984 connections in the kept half
    # plane.  The scalar search keeps the first of equal rounded keys,
    # so bit equality shows that the batch emits no connection twice.
    pytest.param((square_torus, (30.0,)), id="square_torus-L30"),
    pytest.param((unit_regular_octagon, (10.0,)), id="unit_octagon-L10"),
])


def fixed_surface(surface):
    """A ``FIXED_SURFACES`` entry as its surface and bounds: those given,
    or 1 and 3 sqrt(area)."""
    surface, lengths = surface if isinstance(surface, tuple) else (surface, None)
    X = surface()
    return X, lengths or (1.0, 3.0 * math.sqrt(X.area()))


def oriented(connections):
    """The multiset of connections, holonomies rounded to 8 digits."""
    return Counter((round(sc.holonomy.real, 8), round(sc.holonomy.imag, 8),
                    sc.start_zero, sc.end_zero, sc.class_vector)
                   for sc in connections)


class TestReverses:
    """``both_orientations``, the canonical connections and their reverses,
    is the scalar search over every direction."""

    @FIXED_SURFACES
    def test_fixed_surfaces(self, surface):
        X, lengths = fixed_surface(surface)
        for L in lengths:
            want, _ = scalar_unfold(X, L, keep_orientations=True)
            assert want and oriented(both_orientations(X, L)) == oriented(want)

    @settings(PROPERTY, max_examples=15)
    @given(surfaces=st.lists(surfaces_for_batch, min_size=1, max_size=8),
           L=st.floats(0.5, 3.0))
    @example(surfaces=[subspace_octagon(686)], L=3.0)
    def test_batch(self, surfaces, L):
        """At ``DRAWN_BUDGET`` the canonical search raises exactly when
        the scalar one does; else the scalar search over every direction,
        which expands about twice its nodes, is its connections and their
        reverses."""
        for X in surfaces:
            try:
                got = both_orientations(X, L, DRAWN_BUDGET)
            except UnfoldingBudgetError:
                with pytest.raises(UnfoldingBudgetError):
                    scalar_unfold(X, L, budget=DRAWN_BUDGET)
                continue
            want, _ = scalar_unfold(X, L, keep_orientations=True)
            assert oriented(got) == oriented(want)


class TestBatchedUnfolding:
    """unfold_surfaces develops a whole batch in one level-synchronous
    search; each surface must get exactly what it gets alone."""

    @PROPERTY
    @given(surfaces=st.lists(surfaces_for_batch, min_size=1, max_size=8),
           L=st.floats(0.5, 3.0))
    def test_mixed_batch_equals_batches_of_one(self, surfaces, L):
        assert_batch_equals_batches_of_one(surfaces, L)

    def test_fixed_mixed_batch(self):
        surfaces = [square_torus(), regular_octagon(), subspace_octagon(4),
                    square_torus().rescaled(4.0), no_coordinates(octagon_surface()),
                    torus(0.3 + 0j, 0.1 + 3.3j)]
        for L in (1.0, 3.0):
            batch = unfold_surfaces(surfaces, L)
            assert batch.offsets[4] == batch.offsets[3]  # nothing below L
            assert batch.dims == (2, 4, 4, 2, None, 2)
            singles = [unfold_surfaces([X], L) for X in surfaces]
            assert_batch_is_concatenation(batch, singles)
            for i, X in enumerate(surfaces):
                assert fields(batch.connections(i)) == fields(
                    enumerate_saddle_connections(X, L))

    def test_several_vertices(self):
        """Surfaces with several cone points, alone and in one batch with a
        chart torus, equal the scalar search, clipped and over every
        direction, start and end zeros included."""
        surfaces = [
            MarkedTorusFamily().surface(PlumbingParams(t={-1: 0.05 + 0.02j})),
            HorizontalCylinderFamily().surface(
                PlumbingParams(t_h={0: 0.01, 1: 0.02}))]
        assert [X.n_vertices for X in surfaces] == [4, 4]
        for X in surfaces:
            assert_equals_scalar(X, 1.0)
            assert fields(enumerate_saddle_connections(X, 1.0)) == fields(
                unclipped_canonical(X, 1.0))
        mixed = [surfaces[0], square_torus(), surfaces[1]]
        batch = unfold_surfaces(mixed, 1.0)
        assert_batch_is_concatenation(batch, [
            unfold_surfaces([X], 1.0) for X in mixed])
        assert len(set(batch.start_zero.tolist())) == 4

    def test_empty_batch(self):
        batch = unfold_surfaces([], 2.0)
        assert batch.offsets.tolist() == [0]
        assert batch.nodes.size == 0 and batch.dims == ()
        for name in ("holonomy", "length", "start_zero", "end_zero", "classes"):
            assert getattr(batch, name).shape[0] == 0
        with pytest.raises(ValueError, match="positive"):
            unfold_surfaces([], 0.0)

    def test_budget_is_per_surface(self):
        """The batch raises exactly when one surface alone needs more than
        the budget, not when the batch total does."""
        surfaces = [square_torus(), torus(0.3 + 0j, 0.1 + 3.3j),
                    regular_octagon(), octagon_surface()]
        L = 6.0
        counts = [int(unfold_surfaces([X], L).nodes[0]) for X in surfaces]
        most = max(counts)
        assert counts.count(most) == 1 and sum(counts) > most
        batch = unfold_surfaces(surfaces, L, budget=most)
        assert batch.nodes.tolist() == counts
        # the batch total passes most - 1 no later than any surface does;
        # the error names the surface that passes it, wherever it stands
        i = counts.index(most)
        for order, named in ((surfaces, i), (surfaces[::-1], len(counts) - 1 - i)):
            with pytest.raises(UnfoldingBudgetError,
                               match=rf"\(surface {named} of the batch\)"):
                unfold_surfaces(order, L, budget=most - 1)
        with pytest.raises(UnfoldingBudgetError):
            enumerate_saddle_connections(surfaces[counts.index(most)], L,
                                         budget=most - 1)

    def test_class_overflow_bound(self):
        """Classes are int64: a coefficient times budget + 2 must stay below
        2**63, else the search refuses to start.  A coefficient that does
        not fit int64 is refused when the surface is built."""
        X = octagon_surface()
        tris = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        big, budget = 10**12, 10**7
        coords = np.asarray(
            [[[big * c for c in X.edge_coeff(t, e)] for e in range(3)]
             for t in range(X.n_triangles)], dtype=object)
        Y = TranslationSurface(tris, X.gluings, coords)
        for call in (lambda: unfold_surfaces([square_torus(), Y], 2.0,
                                             budget=budget),
                     lambda: enumerate_saddle_connections(Y, 2.0,
                                                          budget=budget)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(big) in str(err.value)
            assert str(budget + 2) in str(err.value)
        with pytest.raises(SurfaceError, match=str(2**70)):
            TranslationSurface(tris, X.gluings, coords // big * 2**70)
        # just below the bound the classes are exact Python ints
        big = (2**63 - 1) // (1000 + 2)
        coords = np.asarray([[[big * c for c in X.edge_coeff(t, e)]
                              for e in range(3)] for t in range(X.n_triangles)],
                            dtype=object)
        Y = TranslationSurface(tris, X.gluings, coords)
        got = enumerate_saddle_connections(Y, 1.5, budget=1000)
        want = enumerate_saddle_connections(X, 1.5)
        assert [sc.class_vector for sc in got] == [
            tuple(big * c for c in sc.class_vector) for sc in want]
        assert all(type(c) is int for sc in got for c in sc.class_vector)

    @PROPERTY
    @given(X=surfaces_for_batch, L=st.floats(0.5, 3.0))
    @example(X=subspace_octagon(686), L=3.0)
    def test_equals_scalar_search(self, X, L):
        """Bit for bit the connections, order and node count of the scalar
        breadth-first search, or the budget error on both."""
        assert_equals_scalar(X, L, DRAWN_BUDGET)

    @FIXED_SURFACES
    def test_fixed_surfaces_equal_scalar_search(self, surface):
        X, lengths = fixed_surface(surface)
        for L in lengths:
            assert_equals_scalar(X, L)

    @pytest.mark.parametrize("X", [regular_octagon(), subspace_octagon(5),
                                   torus(1 + 0j, 0.4 + 0.9j)])
    def test_own_lengths_equal_scalar_search(self, X):
        """At a bound equal to a connection's reported length the batch and
        the scalar search both emit it: the emit test compares that length,
        not its square, with the bound."""
        lengths = np.unique(unfold_surfaces([X], 3.0 * math.sqrt(X.area())).length)
        assert lengths.size > 3
        for L in lengths[::max(1, lengths.size // 12)].tolist():
            assert_equals_scalar(X, L)
            assert L in unfold_surfaces([X], L).length

    def test_tables_arrays_are_shared(self):
        X = square_torus()
        Y = torus(1.0 + 0.1j, 0.2 + 1j)
        assert X._tables is Y._tables
        a = X._tables
        assert a.dim == 2 and SurfaceBatch.of([X, Y]).coeff_max == 1
        assert not a.neighbor.flags.writeable

    def test_gathered_rows_are_the_tables(self):
        """A batch lays each surface's tables on its own half-edges, chart
        rows zero padded, in C-contiguous arrays."""
        surfaces = [square_torus(), no_coordinates(octagon_surface()),
                    regular_octagon(), torus(0.3 + 0j, 0.1 + 3.3j), square_torus()]
        b = SurfaceBatch.of(surfaces)
        for name in ("edge", "neighbor", "corner_vertex", "coeffs", "start", "surf"):
            assert getattr(b, name).flags.c_contiguous
        assert b.dims == (2, None, 4, 2, 2) and b.coeffs.shape[0] == 4
        for s, X in enumerate(surfaces):
            lo, hi = b.start[s], b.start[s + 1]
            t, dim = X._tables, X._tables.dim or 0
            assert (b.neighbor[lo:hi] - lo).tolist() == t.neighbor.tolist()
            assert b.corner_vertex[lo:hi].tolist() == t.corner_vertex.tolist()
            assert b.coeffs[:dim, lo:hi].T.tolist() == (
                t.coeffs.tolist() if dim else [[]] * (hi - lo))
            assert not b.coeffs[dim:, lo:hi].any() and (b.surf[lo:hi] == s).all()
            edges = X._edges.reshape(-1)
            assert b.edge[:, lo:hi].tobytes() == np.stack(
                [edges.real, edges.imag]).tobytes()



def far_edge_reach(X):
    """The least distance from a corner to the far edge of its triangle: a
    corner starts a chain only when its bound reaches that far edge."""
    E = X._edges.tolist()
    return min(math.sqrt(scalar_seg_dist2(tri[c], -tri[(c + 2) % 3]))
               for tri in E for c in range(3))


def shortest_edge(X):
    return float(np.abs(X._edges).min())


def unit_area(X):
    return X.rescaled(1.0 / math.sqrt(X.area()))


class TestFarEdgeFilter:
    """Only corners whose far edge lies within the bound start a chain, and
    only the surfaces with such a corner get the per-half-edge tables: the
    batch still equals the scalar search surface by surface."""

    def test_below_every_far_edge(self):
        """Each surface scaled so that every far edge lies beyond 1."""
        surfaces = [X.rescaled(1 / (0.99 * far_edge_reach(X))) for X in (
            square_torus(), torus(0.3 + 0j, 0.1 + 3.3j), regular_octagon(),
            subspace_octagon(4), no_coordinates(octagon_surface()))]
        assert all(1.0 < far_edge_reach(X) <= shortest_edge(X) for X in surfaces)
        batch = unfold_surfaces(surfaces, 1.0)
        assert batch.offsets.tolist() == [0] * (len(surfaces) + 1)
        assert batch.nodes.tolist() == [0] * len(surfaces)
        for X in surfaces:
            assert scalar_unfold(X, 1.0) == ([], 0)

    def test_mixed_rooted_and_unrooted(self):
        """At the bound 1, the scan's largest radius: tori scaled so that
        their shortest edge lies beyond it (some reach a far edge, some
        none), unit-area octagons, and surfaces scaled far beyond it, with
        unrooted surfaces first, last and between rooted ones."""
        rng = np.random.default_rng(28)
        tori = []
        for _ in range(12):
            u, v = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            if abs((u.conjugate() * v).imag) > 1e-3:
                X = torus(u, v) if (u.conjugate() * v).imag > 0 else torus(v, u)
                tori.append(X.rescaled(1 / (0.9 * shortest_edge(X))))
        octagons = [unit_area(X) for X in (
            regular_octagon(), subspace_octagon(4), subspace_octagon(11),
            star_octagon(0.3, [0.5, 0.9, 0.4, 0.7], [0.8, 0.5, 1.0, 0.6]))]
        far = [square_torus().rescaled(2.0**40),
               unit_area(subspace_octagon(5)).rescaled(2.0**40)]
        surfaces = ([far[0]] + tori[:6] + [octagons[0], far[1], octagons[1]]
                    + tori[6:] + octagons[2:] + [far[0]])
        batch = unfold_surfaces(surfaces, 1.0)
        rooted = batch.nodes > 0
        assert not rooted[0] and not rooted[-1]
        torus_rooted = [n > 0 for n, X in zip(batch.nodes, surfaces)
                        if any(X is Y for Y in tori)]
        assert any(torus_rooted) and not all(torus_rooted)
        inner = rooted[1:-1]
        assert (~inner[1:-1] & inner[:-2] & inner[2:]).any()
        for s, X in enumerate(surfaces):
            want, nodes = scalar_unfold(X, 1.0)
            got = batch.connections(s)
            assert fields(got) == fields(want)
            assert [bits(sc.holonomy) for sc in got] == [
                bits(sc.holonomy) for sc in want]
            assert batch.nodes[s] == nodes


class TestPerSurfaceBound:
    """``length_bound`` is one bound for the whole batch: a bound per
    surface, or any other sequence, is refused with a ``ValueError`` that
    names it, whatever its entries."""

    @pytest.mark.parametrize("bound", [
        [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], [[1.0], [2.0]], np.ones((2, 2)),
        [1.0, [2.0]], ["1", "2"], [True, True], [1.0, 1j],
    ], ids=repr)
    def test_bad_shape_or_type(self, bound):
        with pytest.raises(ValueError, match=NOT_REAL):
            unfold_surfaces([square_torus(), octagon_surface()], bound)

    @pytest.mark.parametrize("bound", [
        [1.0, math.nan], [math.inf, 1.0], [1.0, -math.inf], [0.0, 1.0],
        [1.0, -2.0], np.array([1.0, -0.0])], ids=repr)
    def test_entry_not_finite_and_positive(self, bound):
        with pytest.raises(ValueError, match=NOT_REAL):
            unfold_surfaces([square_torus(), octagon_surface()], bound)

    def test_empty_batch(self):
        batch = unfold_surfaces([], 1.0)
        assert batch.offsets.tolist() == [0] and batch.nodes.size == 0
        for bound in (np.zeros(0), [1.0]):
            with pytest.raises(ValueError, match="length_bound"):
                unfold_surfaces([], bound)
