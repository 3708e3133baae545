import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatscale import torus_oracle
from flatscale.torus_oracle import (
    BLOCK_POINTS,
    DEFAULT_PQ_MAX,
    HERMITE_SHORTEST,
    _block_volumes,
    _clip_rows,
    _pair_bounds,
    _orbit_table,
    _pair_volume,
    _point_areas,
    _quadrant,
    bezout_complement,
    circle_polygon_area,
    cone_volume_quadrature,
    primitive_pairs,
    torus_exact_oracle,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
N_GON = 4096


def clip_convex(points, poly):
    """Vertices of the polygon `points` clipped by the ccw convex `poly`."""
    if shoelace(np.array(poly)) == 0.0:
        return points[:0]  # a segment or a point: no half plane to clip by
    for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
        if len(points) == 0:
            break
        if (x1, y1) == (x2, y2):
            continue
        # inside: to the left of the edge, (y2 - y1) x - (x2 - x1) y <= c
        n = np.array([y2 - y1, x1 - x2])
        f = points @ n - (n[0] * x1 + n[1] * y1)
        g = np.roll(f, -1)
        nxt = np.roll(points, -1, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = points + (f / (f - g))[:, None] * (nxt - points)
        keep = np.stack([f <= 0, (f <= 0) != (g <= 0)], axis=1).ravel()
        points = np.stack([points, cross], axis=1).reshape(-1, 2)[keep]
    return points


def shoelace(points):
    if len(points) < 3:
        return 0.0
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def n_gon_bounds(cx, cy, r, poly):
    """Areas of the inscribed and the circumscribed regular N_GON-gon of
    the disc, each clipped by poly: they bound the disc-polygon area."""
    theta = 2 * math.pi * np.arange(N_GON) / N_GON
    unit = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    out = []
    for rr in (r, r / math.cos(math.pi / N_GON)):
        out.append(shoelace(clip_convex(np.array([cx, cy]) + rr * unit, poly)))
    return out


def pad(polys):
    """Pad every polygon to the longest by repeating its last vertex."""
    m = max(len(p) for p in polys)
    return np.array([list(p) + [p[-1]] * (m - len(p)) for p in polys])


coord = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def convex_polygons(draw):
    """A ccw rectangle, or a ccw polygon inscribed in an ellipse (vertices
    at sorted angles, possibly repeated)."""
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.lists(coord, min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(coord, min_size=2, max_size=2)))
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    px, py = draw(coord), draw(coord)
    a, b = draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True),
                                  min_size=3, max_size=7)))
    return [(px + a * math.cos(t), py + b * math.sin(t)) for t in angles]


discs = st.tuples(coord, coord, st.floats(0.05, 2.5))

# (cx, cy, r, polygon, exact area)
UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
DEGENERATE = {
    "repeated vertices": (
        0.5, 0.5, 0.3,
        [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.0, 1.0)],
        0.09 * math.pi),
    "tangent edges inside": (
        0.0, 0.0, 1.0, [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], math.pi),
    "tangent edge outside": (
        0.0, 2.0, 1.0, [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], 0.0),
    "vertices on the circle": (0.0, 0.0, 1.0, UNIT_SQUARE, math.pi / 4),
    "chord between vertices on the circle": (
        0.0, 0.0, 1.0, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 0.5),
    "disjoint disc": (5.0, 5.0, 1.0, UNIT_SQUARE, 0.0),
    "polygon inside the disc": (
        0.2, 0.2, 3.0, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], 0.5),
}


class TestCirclePolygonArea:
    def test_disc_inside_polygon(self):
        poly = [(-2, -2), (2, -2), (2, 2), (-2, 2)]
        assert circle_polygon_area(0.1, -0.2, 1.0, poly) == pytest.approx(math.pi)

    def test_polygon_inside_disc(self):
        poly = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert circle_polygon_area(0.5, 0.5, 10.0, poly) == pytest.approx(1.0)

    def test_half_overlap(self):
        poly = [(0, -5), (5, -5), (5, 5), (0, 5)]
        assert circle_polygon_area(0.0, 0.0, 1.0, poly) == pytest.approx(math.pi / 2)

    def test_against_rasterization(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            cx, cy = rng.uniform(-1, 1, 2)
            R = rng.uniform(0.2, 1.5)
            x0, x1 = sorted(rng.uniform(-2, 2, 2))
            y0, y1 = sorted(rng.uniform(-2, 2, 2))
            poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            got = circle_polygon_area(cx, cy, R, poly)
            n = 500
            xs = np.linspace(x0, x1, n)
            ys = np.linspace(y0, y1, n)
            X, Y = np.meshgrid(xs, ys)
            ref = (((X - cx) ** 2 + (Y - cy) ** 2) <= R * R).mean() \
                * (x1 - x0) * (y1 - y0)
            assert abs(got - ref) < 0.012 * max(ref, 0.05)


class TestBroadcastCirclePolygonArea:
    """The one broadcasting implementation against an independent route:
    the inscribed and circumscribed regular 4096-gons of the disc, clipped
    by the polygon, bound the exact area from below and above."""

    @PROPERTY
    @given(st.lists(st.tuples(discs, convex_polygons()), min_size=1, max_size=6))
    def test_between_n_gon_bounds(self, rows):
        cx, cy, r = (np.array(v) for v in zip(*(d for d, _ in rows)))
        polys = pad([p for _, p in rows])
        got = circle_polygon_area(cx, cy, r, polys)
        assert got.shape == (len(rows),)
        for i, (_, poly) in enumerate(rows):
            lo, hi = n_gon_bounds(cx[i], cy[i], r[i], poly)
            assert lo - 1e-12 <= got[i] <= hi + 1e-12
            one = circle_polygon_area(cx[i], cy[i], r[i], poly)
            assert isinstance(one, float)
            assert one == pytest.approx(got[i], rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_row(self, name):
        cx, cy, r, poly, want = DEGENERATE[name]
        assert circle_polygon_area(cx, cy, r, poly) == pytest.approx(want, abs=1e-15)
        lo, hi = n_gon_bounds(cx, cy, r, poly)
        assert lo - 1e-12 <= want <= hi + 1e-12

    def test_degenerate_rows_in_one_batch(self):
        cx, cy, r, polys, want = zip(*DEGENERATE.values())
        got = circle_polygon_area(np.array(cx), np.array(cy), np.array(r), pad(polys))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_one_polygon_many_discs(self):
        cx = np.array([0.5, 0.0, 5.0])
        cy = np.array([0.5, 0.0, 5.0])
        r = np.array([0.3, 1.0, 1.0])
        got = circle_polygon_area(cx, cy, r, UNIT_SQUARE)
        np.testing.assert_allclose(got, [0.09 * math.pi, math.pi / 4, 0.0],
                                   rtol=0, atol=1e-15)

    def test_empty_and_zero_rows(self):
        assert circle_polygon_area(0.0, 0.0, 0.0, UNIT_SQUARE) == 0.0
        assert circle_polygon_area(0.0, 0.0, 1.0, UNIT_SQUARE[:2]) == 0.0
        got = circle_polygon_area(np.zeros(0), np.zeros(0), np.zeros(0),
                                  np.zeros((0, 5, 2)))
        assert got.shape == (0,)


class TestClipRows:
    """Row-wise clipping by n . w <= 1, as the slow path clips each w-square."""

    def test_cases_in_one_batch(self):
        square = UNIT_SQUARE
        far = [(2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0)]
        rect = np.array([square, far, square, square])
        # x + y <= 5 keeps all, x <= 1 cuts all of `far`,
        # x + y <= 1.5 cuts one corner, x + y <= 0.5 leaves a triangle
        nx = np.array([0.2, 1.0, 1 / 1.5, 2.0])
        ny = np.array([0.2, 0.0, 1 / 1.5, 2.0])
        poly, count = _clip_rows(rect, nx, ny)
        assert poly.shape == (4, 5, 2)
        assert list(count) == [4, 0, 5, 3]
        np.testing.assert_array_equal(poly[0], square + [square[-1]])
        np.testing.assert_allclose(
            poly[2], [(0, 0), (1, 0), (1, 0.5), (0.5, 1), (0, 1)], atol=1e-15)
        np.testing.assert_allclose(
            poly[3], [(0, 0), (0.5, 0), (0, 0.5), (0, 0.5), (0, 0.5)], atol=1e-15)
        # the padding adds nothing to the area
        area = circle_polygon_area(np.zeros(3), np.zeros(3), np.full(3, 10.0),
                                   poly[[0, 2, 3]])
        np.testing.assert_allclose(area, [1.0, 1.0 - 0.125, 0.125], atol=1e-15)


# _pair_volume(p, q, eps, 2.0, n) of the per-point scalar implementation;
# (1, 0), (2, 1), (-3, 1) have a z-gate (r = 0 or s = 0), the others none
PAIR_VOLUME_GOLDEN = {
    ((1, 0), 0.05, 24): 0.00020907589997848746,
    ((1, 0), 0.05, 48): 0.00020934860767411154,
    ((1, 0), 0.3, 24): 0.27096236637211957,
    ((1, 0), 0.3, 48): 0.27131579554564844,
    ((1, 0), 0.95, 24): 9.205253238164367,
    ((1, 0), 0.95, 48): 9.202155043505979,
    ((2, 1), 0.05, 24): 1.0375462008271077e-05,
    ((2, 1), 0.05, 48): 1.3263163836744957e-05,
    ((2, 1), 0.3, 24): 0.01736867416514506,
    ((2, 1), 0.3, 48): 0.017057168512636074,
    ((2, 1), 0.95, 24): 1.6268963536024643,
    ((2, 1), 0.95, 48): 1.627576716074521,
    ((-3, 1), 0.05, 24): 2.0446418988882636e-06,
    ((-3, 1), 0.05, 48): 2.6137072711374386e-06,
    ((-3, 1), 0.3, 24): 0.00313678766996117,
    ((-3, 1), 0.3, 48): 0.0032494077813310603,
    ((-3, 1), 0.95, 24): 0.3392643059449801,
    ((-3, 1), 0.95, 48): 0.33669642013181467,
    ((-2, 3), 0.05, 24): 2.0446418988882636e-06,
    ((-2, 3), 0.05, 48): 2.6137072711374386e-06,
    ((-2, 3), 0.3, 24): 0.00313678766996117,
    ((-2, 3), 0.3, 48): 0.0032494077813310603,
    ((-2, 3), 0.95, 24): 0.3392643059449801,
    ((-2, 3), 0.95, 48): 0.33669642013181467,
    ((3, 5), 0.05, 24): 2.652358633134709e-07,
    ((3, 5), 0.05, 48): 3.3905639167708336e-07,
    ((3, 5), 0.3, 24): 0.00042126198331055584,
    ((3, 5), 0.3, 48): 0.0004294605866469918,
    ((3, 5), 0.95, 24): 0.04332650018836471,
    ((3, 5), 0.95, 48): 0.043696870999778134,
    ((-7, 4), 0.05, 24): 6.893143591844205e-08,
    ((-7, 4), 0.05, 48): 8.811645470433655e-08,
    ((-7, 4), 0.3, 24): 0.00010318516178041606,
    ((-7, 4), 0.3, 48): 0.00010915076090207939,
    ((-7, 4), 0.95, 24): 0.011293519420047549,
    ((-7, 4), 0.95, 48): 0.011358278991286422,
}

# torus_exact_oracle([eps]) at default settings, from the same implementation
ORACLE_GOLDEN = {
    0.15: 0.07544656969813456,
    0.2: 0.2357589733319963,
    0.3: 1.172412558608076,
    0.45: 5.669691594573996,
}


# odd grids, where a quadrant adds its centre point alone: torus_exact_oracle
# ([0.3], grid_resolution=n) and _pair_volume(p, q, eps, 2.0, 25) of the
# implementation that evaluated every point of each pair's grid
ODD_GRID_ORACLE_GOLDEN = {
    25: 1.1822129381579694,
    47: 1.1726176332293587,
}
ODD_GRID_PAIR_GOLDEN = {
    ((1, 0), 0.3): 0.27099931150172596,
    ((1, 0), 0.95): 9.20272128892747,
    ((2, 1), 0.3): 0.018398798387573356,
    ((2, 1), 0.95): 1.6248300066807755,
    ((-3, 1), 0.3): 0.0033968802665882165,
    ((-3, 1), 0.95): 0.3374417371913897,
}


def quadrant_points(n):
    """Points of one quadrant of the n x n grid, the centre of odd n too."""
    return (n // 2) * ((n + 1) // 2) + n % 2


def representatives(pq_max=DEFAULT_PQ_MAX):
    """The pairs the oracle integrates: (p, q) of primitive_pairs(pq_max)
    with 0 <= p <= q, one per orbit of the box's symmetries."""
    return [(p, q) for p, q in primitive_pairs(pq_max) if 0 <= p <= q]


def representative(p, q):
    """The representative of the orbit of (p, q): V(p, q) = V(-p, q) =
    V(q, p), so the volume depends only on {|p|, |q|}."""
    return min(abs(p), abs(q)), max(abs(p), abs(q))


def pair_rows(pairs):
    """(p, q, r, s) rows of pairs, (r, s) their bezout_complement."""
    return np.array([(p, q, *bezout_complement(p, q)) for p, q in pairs])


def _default_grids(pairs, grid_resolution=48):
    """The z-grid of each of pairs in the oracle."""
    return [grid_resolution if max(abs(p), abs(q)) <= 4
            else max(24, grid_resolution // 2) for p, q in pairs]


def all_pair_volumes(pairs, eps, half_width, grid_resolution=48):
    """Volumes of pairs, in the oracle's blocks, on the oracle's grids."""
    grids = _default_grids(pairs, grid_resolution)
    rows = pair_rows(pairs)
    return np.concatenate([_block_volumes(rows[b], eps, half_width, grids[b])
                           for b in torus_oracle._blocks(grids)])


class TestVectorisedPairVolume:
    def test_golden_values(self):
        for ((p, q), eps, n), want in PAIR_VOLUME_GOLDEN.items():
            r, s = bezout_complement(p, q)
            assert (r == 0 or s == 0) == ((p, q) in [(1, 0), (2, 1), (-3, 1)])
            assert _pair_volume(p, q, eps, 2.0, n) == pytest.approx(want, rel=1e-12)

    def test_oracle_golden_values(self):
        for eps, want in ORACLE_GOLDEN.items():
            assert torus_exact_oracle([eps]) == pytest.approx(want, rel=1e-12)

    def test_one_call_per_block(self, monkeypatch):
        """The overlapping rows of a block of pairs go to circle_polygon_area
        in one call, looked up as a module attribute at call time."""
        calls = []
        cpa = torus_oracle.circle_polygon_area

        def counting(cx, cy, radius, poly):
            calls.append(len(cx))
            return cpa(cx, cy, radius, poly)

        monkeypatch.setattr(torus_oracle, "circle_polygon_area", counting)
        per_pair = []
        for p, q in primitive_pairs(6):
            before = len(calls)
            _pair_volume(p, q, 0.3, 2.0, 48)
            per_pair.append(len(calls) - before)
        assert set(per_pair) == {0, 1}
        assert max(calls) > 25

        blocks = torus_oracle._block_volumes
        per_block = []

        def counting_blocks(*args):
            before = len(calls)
            out = blocks(*args)
            per_block.append(len(calls) - before)
            return out

        monkeypatch.setattr(torus_oracle, "_block_volumes", counting_blocks)
        calls.clear()
        torus_exact_oracle([0.3])
        # runs of consecutive representatives, as many as fit in
        # BLOCK_POINTS = 4608 quadrant points: the 24^2 quadrants of the
        # 48^2 grids of max(|p|, |q|) <= 4 fit 8 to a block, the 12^2 ones
        # of the 24^2 grids 32 (the 720 pairs took 25 blocks)
        n_blocks, points = 1, 0
        for n in _default_grids(representatives()):
            if points and points + quadrant_points(n) > BLOCK_POINTS:
                n_blocks, points = n_blocks + 1, 0
            points += quadrant_points(n)
        assert len(per_block) == n_blocks == 7
        assert set(per_block) == {0, 1}
        assert min(calls) > 0
        # the skip leaves 177 of the 15,592 slow rows of the 181
        # representatives at eps = 0.3 (592 of the 62,252 of the 720 pairs,
        # checked as sum(calls) < 750)
        assert sum(calls) < 200

    @pytest.mark.parametrize("grid_resolution, pq_max", [(200, 2), (60, 6)])
    def test_blocks_within_the_cap(self, grid_resolution, pq_max, monkeypatch):
        """The oracle's blocks are runs of consecutive representatives, in
        order, each of one pair or of at most BLOCK_POINTS quadrant points,
        and each as long as the cap allows: the points held at once, and so
        the peak memory, stay within max(BLOCK_POINTS, one pair's quadrant).
        (The blocks ran over all of primitive_pairs(pq_max) before the
        oracle integrated one pair per orbit.)"""
        blocks = torus_oracle._block_volumes
        seen = []

        def spy(pairs, eps, half_width, grids):
            seen.append(([(p, q) for p, q, _, _ in pairs.tolist()], list(grids)))
            return blocks(pairs, eps, half_width, grids)

        monkeypatch.setattr(torus_oracle, "_block_volumes", spy)
        torus_exact_oracle([0.3], grid_resolution=grid_resolution, pq_max=pq_max)
        grids = _default_grids(representatives(pq_max), grid_resolution)
        assert [p for pairs, _ in seen for p in pairs] == representatives(pq_max)
        assert [n for _, g in seen for n in g] == grids
        points = [sum(map(quadrant_points, g)) for _, g in seen]
        for (pairs, _), total in zip(seen, points):
            assert len(pairs) == 1 or total <= BLOCK_POINTS
        firsts = [g[0] for _, g in seen[1:]]
        assert all(total + quadrant_points(n) > BLOCK_POINTS
                   for total, n in zip(points, firsts))
        if grid_resolution == 200:
            assert all(len(pairs) == 1 for pairs, _ in seen)
        else:
            assert max(len(pairs) for pairs, _ in seen) > 1

    @pytest.mark.parametrize("eps", [0.15, 0.3])
    def test_blocks_equal_pairs(self, eps):
        """Every representative's volume is bit for bit the same in any
        block, the oracle adds orbit size times volume in representative
        order, and that sum agrees with the sum over all 720 pairs."""
        (pairs, weights), grids = _orbit_table(DEFAULT_PQ_MAX), _default_grids(
            representatives())
        single = [_pair_volume(p, q, eps, 2.0, n)
                  for (p, q, _, _), n in zip(pairs.tolist(), grids)]
        blocks = np.concatenate([
            _block_volumes(pairs[b], eps, 2.0, grids[b])
            for b in torus_oracle._blocks(grids)])
        assert len(single) == 181
        np.testing.assert_array_equal(blocks, single)
        np.testing.assert_array_equal(_block_volumes(pairs[5:18], eps, 2.0, grids[5:18]),
                                      single[5:18])
        total = 0.0
        for weight, volume in zip(weights, single):
            total += weight * volume
        assert torus_exact_oracle([eps]) == total
        every = 0.0
        for volume in all_pair_volumes(primitive_pairs(DEFAULT_PQ_MAX), eps, 2.0):
            every += volume  # every pair, in primitive_pairs order
        assert total == pytest.approx(every, rel=1e-13, abs=0)

    @pytest.mark.parametrize("half_width", [2.0, 3.7])
    @pytest.mark.parametrize("eps", [0.15, 0.3])
    @pytest.mark.parametrize("pq_max, grid_resolution", [(24, 48), (6, 25)])
    def test_pairs_equal_their_representative(self, pq_max, grid_resolution,
                                              eps, half_width):
        """The discretised volume keeps the box's symmetries: every pair's
        volume is its representative's to 1e-14 relative (at most 3.4e-16
        at these settings), though their z-grids are laid out from other (r, s)."""
        pairs = primitive_pairs(pq_max)
        volume = dict(zip(pairs, all_pair_volumes(pairs, eps, half_width,
                                                  grid_resolution)))
        assert min(volume.values()) > 0.0
        for (p, q), v in volume.items():
            assert v == pytest.approx(volume[representative(p, q)], rel=1e-14, abs=0)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.95])
    def test_skipped_rows_are_rounding_noise(self, eps, monkeypatch):
        """With the skip off, every row whose disc misses the bounding box of
        its clip polygon, a superset of the rows the skip drops, gets an area
        of rounding noise from circle_polygon_area: under machine epsilon
        times the disc area, and under 1e-17 up to eps = 0.3 (at eps = 0.95
        the discs reach radius 1.25 and the noise 1.8e-16)."""
        meets = torus_oracle._disc_meets_box
        cpa = torus_oracle.circle_polygon_area
        dropped, rows = [], []

        def no_skip(cx, cy, radius, *box):
            dropped.append(np.count_nonzero(~meets(cx, cy, radius, *box)))
            return np.ones(len(cx), dtype=bool)

        def recording(cx, cy, radius, poly):
            area = cpa(cx, cy, radius, poly)
            rows.append((cx, cy, radius, poly, area))
            return area

        monkeypatch.setattr(torus_oracle, "_disc_meets_box", no_skip)
        monkeypatch.setattr(torus_oracle, "circle_polygon_area", recording)
        for p, q in primitive_pairs(6):
            _pair_volume(p, q, eps, 2.0, 48)
        cx, cy, radius, poly, area = (np.concatenate(v) for v in zip(*rows))
        lo, hi = poly.min(axis=1), poly.max(axis=1)
        miss = ~meets(cx, cy, radius, lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])
        assert miss.sum() >= sum(dropped) > 10_000
        noise = np.abs(area[miss])
        assert np.all(noise <= np.finfo(float).eps * math.pi * radius[miss] ** 2)
        if eps <= 0.3:
            assert noise.max() <= 1e-17


def scalar_pair_bounds(p, q, e2, half_width):
    """[gate, alpha_u, beta_u, alpha_v, beta_v, lim] of one pair, one
    coefficient at a time."""
    r, s = bezout_complement(p, q)
    gate, squares, lim = math.inf, [], math.inf
    for cw, cz in ((s, q), (r, p)):
        if cw == 0:
            gate = min(gate, half_width / abs(cz))
            squares += [0.0, math.inf]
            continue
        alpha, beta = cz / cw, half_width / abs(cw)
        a = abs(alpha) / math.sqrt(2.0)
        if a > e2:
            lim = min(lim, beta / (a - e2))
        squares += [alpha, beta]
    return [gate, *squares, min(lim, gate)]


def orbit(p, q):
    """The orbit of (p, q) in primitive_pairs under (p, q) -> (-p, q) and
    (p, q) -> (-q, p), each class taken up to sign as q > 0 or (1, 0)."""
    def canonical(p, q):
        return (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)

    seen, todo = set(), [canonical(p, q)]
    while todo:
        p, q = todo.pop()
        if (p, q) not in seen:
            seen.add((p, q))
            todo += [canonical(-p, q), canonical(-q, p)]
    return seen


class TestPairTable:
    def test_rows_are_the_pairs_and_complements(self):
        table, weights = _orbit_table(DEFAULT_PQ_MAX)
        assert _orbit_table(DEFAULT_PQ_MAX)[0] is table
        assert not table.flags.writeable and not weights.flags.writeable
        assert [(p, q) for p, q, _, _ in table.tolist()] == representatives()
        assert all(bezout_complement(p, q) == (r, s) for p, q, r, s in table.tolist())
        assert len(table) == 181 and weights.sum() == 720

    @pytest.mark.parametrize("pq_max", range(1, 31))
    def test_orbits_cover_the_pairs_once(self, pq_max):
        """Each pair of primitive_pairs(pq_max) lies in the orbit of exactly
        one representative, and each weight is its orbit's size."""
        pairs = primitive_pairs(pq_max)
        table, weights = _orbit_table(pq_max)
        reps = [(p, q) for p, q, _, _ in table.tolist()]
        orbits = [orbit(*pq) for pq in reps]
        assert [len(o) for o in orbits] == weights.tolist()
        assert sorted(pq for o in orbits for pq in o) == sorted(pairs)
        for pq in pairs:
            assert representative(*pq) in orbit(*pq)
        assert weights.sum() == len(pairs)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.95])
    def test_bounds_match_the_scalar_loop(self, eps):
        table = pair_rows(primitive_pairs(DEFAULT_PQ_MAX))
        want = [scalar_pair_bounds(p, q, eps * eps, 2.0) for p, q, _, _ in table.tolist()]
        got = _pair_bounds(table, eps * eps, 2.0)
        assert got.shape == (6, len(table))
        np.testing.assert_array_equal(got.T, want)

    def test_unbounded_domain_raises(self):
        # p s - q r = 0: both w-squares grow with |z| no faster than the disc
        with pytest.raises(RuntimeError, match="unbounded z-domain"):
            _pair_bounds(np.array([(1, 1, 1, 1)]), 0.81, 2.0)


class TestQuadrant:
    """One quadrant of the n x n midpoint grid, each point weighted by the
    size of its orbit under (i, j) -> (n - 1 - j, i), the rotation z -> iz."""

    @pytest.mark.parametrize("n", range(1, 51))
    def test_orbits_cover_the_grid_once(self, n):
        x, y, weight = _quadrant(n)
        assert not any(v.flags.writeable for v in (x, y, weight))
        assert weight.sum() == n * n
        assert set(weight) <= {1.0, 4.0} and np.count_nonzero(weight == 1.0) == n % 2
        seen = np.zeros((n, n), dtype=int)
        for i, j, w in zip((x - 0.5).astype(int), (y - 0.5).astype(int), weight):
            orbit = {(i, j)}
            for _ in range(3):
                i, j = n - 1 - j, i
                orbit.add((i, j))
            assert len(orbit) == w
            for ij in orbit:
                seen[ij] += 1
        assert np.all(seen == 1)

    def test_odd_grid_golden_values(self):
        for n, want in ODD_GRID_ORACLE_GOLDEN.items():
            assert torus_exact_oracle([0.3], grid_resolution=n) == pytest.approx(
                want, rel=1e-12)
        for ((p, q), eps), want in ODD_GRID_PAIR_GOLDEN.items():
            assert _pair_volume(p, q, eps, 2.0, 25) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("pq", [(1, 0), (2, 1), (-3, 1), (-2, 3), (3, 5),
                                    (-7, 4), (5, 2)])
    def test_point_areas_invariant_under_rotation(self, pq):
        """The per-point areas at z, iz, -z and -iz agree to 1e-12 of the
        disc area, on random z around the pair's z-domain (beyond it too,
        where a gated pair's gate gives 0)."""
        rng = np.random.default_rng(17)
        clipped = 0
        for eps in (0.05, 0.3, 0.95):
            e2 = eps * eps
            bounds = _pair_bounds(np.array([(*pq, *bezout_complement(*pq))]), e2, 2.0)
            zx, zy = rng.uniform(-1.25, 1.25, (2, 4000)) * bounds[5, 0]
            point = np.repeat(bounds, zx.size, axis=1)
            area = [_point_areas(x, y, e2, point)
                    for x, y in ((zx, zy), (-zy, zx), (-zx, -zy), (zy, -zx))]
            disc = math.pi * (0.5 * e2) ** 2 * (zx * zx + zy * zy)
            for other in area[1:]:
                assert np.all(np.abs(other - area[0]) <= 1e-12 * disc)
            assert np.any(area[0] >= disc * (1 - 1e-15))
            clipped += np.count_nonzero((area[0] > 0.0) & (area[0] < 0.99 * disc))
        # the points reach the clipped areas, not only 0 and the whole disc
        assert clipped > 0

class TestOracleArguments:
    @pytest.mark.parametrize("kwargs, name", [
        (dict(eps=[float("nan")]), "eps"),
        (dict(eps=[float("inf")]), "eps"),
        (dict(eps=[0.2, float("nan")]), "eps"),
        (dict(eps=[0.0]), "eps"),
        (dict(eps=[0.2], grid_resolution=0), "grid_resolution"),
        (dict(eps=[0.2], grid_resolution=2.5), "grid_resolution"),
        (dict(eps=[0.2], pq_max=0), "pq_max"),
        (dict(eps=[0.2], pq_max=3.0), "pq_max"),
        (dict(eps=[0.2], half_width=-1.0), "half_width"),
        (dict(eps=[0.2], half_width=0.0), "half_width"),
        (dict(eps=[0.2], half_width=float("nan")), "half_width"),
        (dict(eps=[0.2], half_width=float("inf")), "half_width"),
        # "0.3" was read as 0.3, half_width=True as a box of h = 1, and
        # grid_resolution=True and pq_max=True were accepted
        (dict(eps="0.3"), "eps"),
        (dict(eps=[0.2, True]), "eps"),
        (dict(eps=[0.3 + 0j]), "eps"),
        (dict(eps=[0.2], half_width=True), "half_width"),
        (dict(eps=[0.2], half_width="2.0"), "half_width"),
        (dict(eps=[0.2], grid_resolution=True), "grid_resolution"),
        (dict(eps=[0.2], pq_max=True), "pq_max"),
        (dict(eps=[0.2], pq_max=np.True_), "pq_max"),
        (dict(eps=[]), "eps is empty"),
    ])
    def test_bad_argument_named(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            torus_exact_oracle(**kwargs)


class TestBezout:
    def test_determinant(self):
        for p in range(-8, 9):
            for q in range(0, 9):
                if math.gcd(abs(p), q) != 1 or (q == 0 and p != 1):
                    continue
                r, s = bezout_complement(p, q)
                assert p * s - q * r == 1

    @pytest.mark.parametrize("pq, rs", [
        ((1, 1), (-1, 0)), ((-3, 5), (1, -2)), ((7, 24), (2, 7)),
        ((-24, 23), (1, -1)), ((5, 2), (2, 1)),
    ])
    def test_recorded_complements(self, pq, rs):
        # recorded values: _pair_volume lays out its z-grid from (r, s)
        assert bezout_complement(*pq) == rs


class TestConeVolume:
    @pytest.mark.parametrize("h", [0.25, 0.5, 1 / math.sqrt(2)])
    def test_half_box_when_every_determinant_fits(self, h):
        # |Im(conj(u) v)| <= 2 h^2 <= 1: the cone is the half box Im > 0
        assert cone_volume_quadrature(h) == (2 * h) ** 4 / 2

    # True once gave the cone volume of h = 1 (7.71)
    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf"),
                                   True, np.True_, "2.0", 2 + 0j])
    def test_bad_half_width(self, h):
        with pytest.raises(ValueError, match="half_width"):
            cone_volume_quadrature(h)


class TestOracle:
    def test_zero_dim_array_is_one_radius(self):
        # a 0-d array has __len__ but no length: it raised a bare TypeError
        want = torus_exact_oracle([0.2], pq_max=6)
        assert torus_exact_oracle(np.array(0.2), pq_max=6) == want
        assert torus_exact_oracle(np.float64(0.2), pq_max=6) == want
        assert torus_exact_oracle(np.array([0.2]), pq_max=6) == want

    def test_no_scipy_below_the_hermite_bound(self):
        """Only the saturated cone volume integrates with scipy; a pair-sum
        value must not import it."""
        src = str(Path(torus_oracle.__file__).parents[1])
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "from flatscale.torus_oracle import torus_exact_oracle\n"
                "torus_exact_oracle([0.3])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_monotone_in_eps(self):
        vals = [torus_exact_oracle([e], grid_resolution=32, pq_max=12)
                for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_saturated_equals_cone_volume(self):
        # want: scipy dblquad (epsrel 1e-8) of the exact area of the strip
        # 0 < Im(conj(u) v) <= 1 in the v-square, integrated over u
        for h, want in ((1.0, 7.7101318687168705), (2.0, 54.47491372439421),
                        (3.0, 134.280664993742)):
            volume = cone_volume_quadrature(h)
            assert volume == pytest.approx(want, rel=1e-8)
            assert torus_exact_oracle([2.0], half_width=h) == volume

    def test_unsupported_window(self):
        with pytest.raises(ValueError):
            torus_exact_oracle([1.01])
        assert HERMITE_SHORTEST == pytest.approx((4 / 3) ** 0.25)

    def test_k2_empty_below_covolume_bound(self):
        # covolume of the unit-area lattice forces |w1||w2| >= 1
        assert torus_exact_oracle([0.2, 0.2]) == 0.0
        assert torus_exact_oracle([0.9, 0.9]) == 0.0
        with pytest.raises(ValueError):
            torus_exact_oracle([2.0, 2.0])

    def test_three_radii_rejected(self):
        with pytest.raises(ValueError, match=r"oracle supports k in \{1, 2\}"):
            torus_exact_oracle([0.2, 0.3, 0.4])

    def test_grid_convergence(self):
        a = torus_exact_oracle([0.2], grid_resolution=32)
        b = torus_exact_oracle([0.2], grid_resolution=64)
        assert abs(a - b) < 0.01 * b

    def test_matches_direct_simulation(self):
        # independent brute-force check of the disjoint-sum construction
        rng = np.random.default_rng(77)
        N = 1_500_000
        u = rng.uniform(-2, 2, N) + 1j * rng.uniform(-2, 2, N)
        v = rng.uniform(-2, 2, N) + 1j * rng.uniform(-2, 2, N)
        A = (np.conj(u) * v).imag
        mask = (A > 0) & (A <= 1)
        uu, vv, aa = u[mask], v[mask], A[mask]
        short = np.zeros(uu.size, dtype=bool)
        for p in range(-12, 13):
            for q in range(0, 13):
                if math.gcd(abs(p), q) != 1 or (q == 0 and p != 1):
                    continue
                w2 = np.abs(p * uu + q * vv) ** 2
                short |= w2 <= 0.04 * aa
        mc = short.sum() / N * 256.0
        se = 256.0 * math.sqrt(short.sum()) / N
        ex = torus_exact_oracle([0.2])
        assert abs(ex - mc) < 4 * se
        # the same samples estimate the cone volume
        cone = mask.sum() / N * 256.0
        cone_se = 256.0 * math.sqrt(mask.mean() * (1 - mask.mean()) / N)
        assert abs(cone_volume_quadrature(2.0) - cone) < 4 * cone_se
