"""Deterministic ground truth for the torus chart cone measure.

Saddle connections of the marked torus with periods (u, v) are the
primitive lattice vectors w = p u + q v.  Two connections with classes of
full rank are non-proportional, so the unit-area lattice satisfies
1 = covolume <= |w1| |w2|; hence for radii with product below 1 the sets
{|p u + q v| <= eps sqrt(area)} over distinct primitive classes are
pairwise disjoint, and the k = 2 locus is empty.  The k = 1 cone measure
is therefore an exactly disjoint sum over canonical primitive pairs.

Each term is computed by the volume-preserving substitution
(u, v) -> (w, z) = (p u + q v, r u + s v) with ps - qr = 1: the condition
|w|^2 <= eps^2 Im(conj(w) z) cuts a disc in the w-plane through the
origin (center i eps^2 conj(z)/2... explicitly (eps^2 z_y/2,
-eps^2 z_x/2), radius eps^2 |z|/2), the box conditions on u, v become
axis-aligned squares in w (or gates on z), and area <= 1 is a half plane.
The w-area is evaluated exactly by circle-polygon intersection and
integrated over a per-pair midpoint grid in z; away from a thin band the
integrand equals the full disc area, so the grid converges fast.

The integrand does not change when z turns by 90 degrees.  Under z -> iz
the disc center and radius turn with z, and so do the w-square centers
alpha z; the squares are axis-aligned, so a turned square is a square of
the same half-side.  The gates |z_x|, |z_y| <= gate swap, and
Im(conj(iw) iz) = Im(conj(w) z) keeps the half plane.  The n x n midpoint
grid maps onto itself by (i, j) -> (n-1-j, i), so each pair evaluates one
quadrant, the points with i < (n-1)/2 and j <= (n-1)/2, each of weight 4,
and for odd n the centre once, of weight 1 (_quadrant): a quarter of the
points, for the same sum up to rounding.

The box |Re|, |Im| < h, Lebesgue measure and the area Im(conj(u) v) are
kept by sigma(u, v) = (conj(u), -conj(v)) and rho(u, v) = (v, -u).  Up to
the sign of the class, sigma maps the locus of the class (p, q) onto that
of (-p, q), and rho maps it onto that of (-q, p), so a pair's volume
V(p, q) = V(-p, q) = V(q, p) depends only on {|p|, |q|}.  Each orbit of
primitive_pairs under the group they generate meets 0 <= p <= q once, so
the oracle integrates only those representatives and weights each volume
by the size of its orbit: 2 for (0, 1) and (1, 1), 4 for every other one
(181 representatives for the 720 pairs at the default pq_max).  The
discretisation keeps the symmetry too: every pair's volume equals its
representative's to a few ulps, and multiplying by 2 or 4 is exact.

The representatives are evaluated in blocks with array operations: a
block is a run of consecutive representatives with at most BLOCK_POINTS
quadrant points, or one representative (7 blocks at the default grid).
Their (p, q, r, s) rows and orbit sizes are one read-only table per
pq_max (_orbit_table), and each block's gates, w-squares and z-domains
come from it by array arithmetic (_pair_bounds).  The quadrant points of a
block's pairs are flattened together, and each point carries its pair's
gates and w-squares (an absent square is (alpha, beta) = (0, inf), which
every point passes); _point_areas gives their areas.  Points whose disc
lies inside every w-square with area <= 1 take pi r^2 directly.  For the
rest the w-squares intersect to one rectangle per point, and a disc that
misses its rectangle is dropped: the clip polygon lies inside the
rectangle, so its area is exactly 0 (at eps = 0.3 this drops all but 177
of the 15,592 such points of the 181 representatives).  Of the points
left, those where eps^2 |z|^2 > 1 are clipped by the half plane row by
row (_clip_rows, the module's only polygon clipper), and every row is
padded to five vertices by repeating a vertex (a zero-length edge adds
exactly 0).  One call to circle_polygon_area per block then gives all
their areas: each edge adds an arc, a chord and an arc, split at its
entry and exit parameters on the circle clamped to the edge.
np.add.reduceat sums each pair's weighted areas as one segment, pairwise,
so a pair's volume does not depend on the block it lands in (_pair_volume
is the block of one), and the oracle adds orbit size times volume in
representative order.  Memory stays at one block's points, at most
max(BLOCK_POINTS, one quadrant of grid_resolution^2).

For eps at or above the Hermite bound (4/3)^(1/4), every unit-area lattice
has a vector no longer than eps, so the k = 1 measure is the whole cone
volume V(h) = |{(u, v) in [-h, h]^4 : 0 < Im(conj(u) v) <= 1}|.  Rescaled
to [-1, 1]^4, Im(conj(u) v) / h^2 is the determinant X - Y of a 2 x 2
matrix with iid U[-1, 1] entries, X and Y products of two of them with
density f(y) = -log|y| / 2 and CDF G(x) = (1 + x - x log|x|) / 2 on
[-1, 1]; with c = 1 / h^2,

    V(h) = (2h)^4 int_{-1}^{1} f(y) [G(min(y + c, 1)) - G(y)] dy,

which cone_volume_quadrature evaluates with one quad call.

No geodesic unfolding is involved anywhere in this module.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .checks import integer, radii, real

DEFAULT_Z_GRID = 48
DEFAULT_PQ_MAX = 24
HERMITE_SHORTEST = (4.0 / 3.0) ** 0.25  # max of lambda_1 over unit-area lattices
BLOCK_POINTS = 4608  # quadrant points per _block_volumes call: eight 48^2 grids


def primitive_pairs(pq_max: int):
    """Canonical primitive pairs: q > 0 together with (1, 0)."""
    out = [(1, 0)]
    for q in range(1, pq_max + 1):
        for p in range(-pq_max, pq_max + 1):
            if math.gcd(abs(p), q) == 1:
                out.append((p, q))
    return out


def bezout_complement(p: int, q: int) -> tuple[int, int]:
    """Small (r, s) with p s - q r = 1."""
    if q == 0:
        return (0, 1) if p == 1 else (0, -1)
    s = pow(p, -1, q)
    r = (p * s - 1) // q  # exact: p s = 1 (mod q)
    # reduce: (r, s) -> (r + t p, s + t q) keeps p s - q r = 1
    t = round(-(r * p + s * q) / (p * p + q * q))
    return r + t * p, s + t * q


# -- exact circle/polygon intersection ------------------------------------------


def circle_polygon_area(cx, cy, radius, poly):
    """Exact area of the intersection of a disc with a simple polygon.

    Broadcasts over rows: cx, cy and radius are scalars or (N,) arrays and
    poly is (m, 2) or (N, m, 2); the result is a float or an (N,) array.
    A row may repeat vertices, because a zero-length edge adds exactly 0.

    Per-edge wedge decomposition about the disc center.  The line through
    the edge a -> b meets the circle at a + t (b - a) for t1 <= t2;
    clamped to [0, 1] they give the points P1, P2 that bound the edge's
    part inside the disc, and the edge adds

        r^2/2 angle(a, P1) + cross(P1, P2)/2 + r^2/2 angle(P2, b):

    arcs where the edge runs outside the disc, a chord (triangle) term
    where it runs inside.  An edge whose line misses the disc has t1 = t2,
    so P1 = P2 and it adds its arc alone.
    """
    poly = np.asarray(poly, dtype=float)
    radius = np.asarray(radius, dtype=float)
    ax = poly[..., 0] - np.asarray(cx, dtype=float)[..., None]
    ay = poly[..., 1] - np.asarray(cy, dtype=float)[..., None]
    bx, by = np.roll(ax, -1, axis=-1), np.roll(ay, -1, axis=-1)
    r2 = (radius * radius)[..., None]
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    dd = np.where(dd > 0.0, dd, 1.0)  # a zero-length edge has P1 = P2 = a = b
    tm = -(ax * dx + ay * dy) / dd
    px, py = ax + tm * dx, ay + tm * dy
    dt = np.sqrt(np.maximum(r2 - (px * px + py * py), 0.0) / dd)
    t1 = np.clip(tm - dt, 0.0, 1.0)
    t2 = np.clip(tm + dt, 0.0, 1.0)
    # t1 = t2 gives P1 = P2 and a chord of exactly 0; t = 1 gives b exactly
    end1, end2 = t1 == 1.0, t2 == 1.0
    p1x, p1y = np.where(end1, bx, ax + t1 * dx), np.where(end1, by, ay + t1 * dy)
    p2x, p2y = np.where(end2, bx, ax + t2 * dx), np.where(end2, by, ay + t2 * dy)
    arcs = (np.arctan2(ax * p1y - ay * p1x, ax * p1x + ay * p1y)
            + np.arctan2(p2x * by - p2y * bx, p2x * bx + p2y * by))
    total = (0.5 * (p1x * p2y - p1y * p2x) + 0.5 * r2 * arcs).sum(axis=-1)
    area = np.where((radius > 0.0) & (poly.shape[-2] >= 3), np.abs(total), 0.0)
    return float(area) if area.ndim == 0 else area


def _clip_rows(poly, nx, ny):
    """Clip each convex polygon poly[i] ((N, m, 2)) by nx[i] x + ny[i] y <= 1.

    Row-wise Sutherland-Hodgman: vertex x1 is kept when it satisfies the
    inequality, and an edge x1 -> x2 whose ends fall on opposite sides then
    adds its crossing x1 + d (x2 - x1), d = (1 - n . x1) / (n . (x2 - x1)).
    Returns the clipped polygons, padded to m + 1 vertices by repeating
    each row's last kept vertex, and the number of vertices each row kept.
    """
    n_rows, m = poly.shape[:2]
    x1, y1 = poly[..., 0], poly[..., 1]
    x2, y2 = np.roll(x1, -1, axis=1), np.roll(y1, -1, axis=1)
    nx, ny, c = nx[:, None], ny[:, None], 1.0
    in1 = nx * x1 + ny * y1 <= c
    in2 = np.roll(in1, -1, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (c - nx * x1 - ny * y1) / (nx * (x2 - x1) + ny * (y2 - y1))
        crossing = np.stack([x1 + d * (x2 - x1), y1 + d * (y2 - y1)], axis=-1)
    # candidates in output order: vertex i if kept, then edge i's crossing
    cand = np.stack([poly, crossing], axis=2).reshape(n_rows, 2 * m, 2)
    keep = np.stack([in1, in1 != in2], axis=2).reshape(n_rows, 2 * m)
    count = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    slot = np.minimum(np.arange(m + 1), count[:, None] - 1)
    slot = np.take_along_axis(order, slot, axis=1)
    return np.take_along_axis(cand, slot[..., None], axis=1), count


# -- pair volumes, a block of pairs at a time -------------------------------------


@functools.lru_cache(maxsize=8)
def _orbit_table(pq_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (p, q, r, s) rows of the orbit representatives 0 <= p <= q
    of primitive_pairs(pq_max), in its order, with (r, s) the
    bezout_complement of (p, q), and their orbit sizes (module docstring)."""
    reps = [(p, q) for p, q in primitive_pairs(pq_max) if 0 <= p <= q]
    table = np.array([(p, q, *bezout_complement(p, q)) for p, q in reps])
    weights = np.array([2.0 if p in (0, q) else 4.0 for p, q in reps])
    for v in (table, weights):
        v.flags.writeable = False
    return table, weights


def _pair_bounds(pairs: np.ndarray, e2: float, half_width: float) -> np.ndarray:
    """Rows gate, alpha_u, beta_u, alpha_v, beta_v, lim of the (p, q, r, s)
    rows of pairs: a (6, len(pairs)) array.

    u = s w - q z and v = -r w + p z.  Where the w-coefficient of u or v
    vanishes the box gives the z-gate |z_x|, |z_y| <= gate; otherwise it
    gives a w-square of center alpha z and half-side beta.  With no gate,
    gate is inf, and an absent square is (alpha, beta) = (0, inf): both
    pass every point.  lim is the half-width of the pair's square z-domain.
    """
    cw, cz = pairs[:, [3, 2]], pairs[:, [1, 0]]  # (s, q) for u, (r, p) for v
    gated = cw == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gate = np.where(gated, half_width / np.abs(cz), math.inf).min(axis=1)
        alpha = np.where(gated, 0.0, cz / cw)
        beta = np.where(gated, math.inf, half_width / np.abs(cw))
        # the disc lies in |w| <= eps^2 |z|, so a w-square forces
        # |alpha| |z| / sqrt(2) <= beta + eps^2 |z|
        a = np.abs(alpha) / math.sqrt(2.0)
        lim = np.where(a > e2, beta / (a - e2), math.inf).min(axis=1)
    lim = np.minimum(lim, gate)
    if not np.isfinite(lim).all():
        raise RuntimeError("unbounded z-domain; invalid pair data")
    return np.stack([gate, alpha[:, 0], beta[:, 0], alpha[:, 1], beta[:, 1], lim])


@functools.lru_cache(maxsize=16)
def _quadrant(n: int):
    """Midpoints (i + 1/2, j + 1/2) and weights of one quadrant of the n x n
    grid, read-only, i (the z_x index) the slow index.

    The rotation z -> iz maps the grid onto itself by (i, j) -> (n-1-j, i).
    Each of its orbits of four points meets i < (n-1)/2, j <= (n-1)/2 once;
    for odd n the centre is an orbit of its own, added last with weight 1.
    """
    i, j = np.meshgrid(np.arange(n // 2), np.arange((n + 1) // 2), indexing="ij")
    i, j, weight = i.ravel(), j.ravel(), np.full(i.size, 4.0)
    if n % 2:
        i, j = np.append(i, n // 2), np.append(j, n // 2)
        weight = np.append(weight, 1.0)
    out = (i + 0.5, j + 0.5, weight)
    for v in out:
        v.flags.writeable = False
    return out


def _disc_meets_box(cx, cy, radius, lo_x, lo_y, hi_x, hi_y):
    """Rows whose disc meets the box in positive area: the box lies closer
    to the center than the radius."""
    dx = np.maximum(np.maximum(lo_x - cx, cx - hi_x), 0.0)
    dy = np.maximum(np.maximum(lo_y - cy, cy - hi_y), 0.0)
    return dx * dx + dy * dy < radius * radius


def _point_areas(zx, zy, e2: float, bounds) -> np.ndarray:
    """w-area of each point z = (zx, zy): |w|^2 <= eps^2 Im(conj(w) z),
    inside the point's w-squares, with Im(conj(w) z) <= 1, and 0 outside
    its gate.  bounds holds the point's gate, alpha_u, beta_u, alpha_v,
    beta_v (rows of _pair_bounds, one column per point)."""
    gate, au, bu, av, bv = bounds[:5]
    zz = zx * zx + zy * zy
    rad = 0.5 * e2 * np.sqrt(zz)
    ccx, ccy = 0.5 * e2 * zy, -0.5 * e2 * zx

    # fast path: disc entirely inside every w-square and A <= 1
    inside = e2 * zz <= 1.0
    for alpha, beta in ((au, bu), (av, bv)):
        inside &= np.abs(ccx - alpha * zx) + rad <= beta
        inside &= np.abs(ccy - alpha * zy) + rad <= beta
    area = np.where(inside, math.pi * rad * rad, 0.0)

    # clip polygon: intersection of the w-squares (axis-aligned)
    slow = np.flatnonzero(~inside)
    x, y, au, bu, av, bv = (v[slow] for v in (zx, zy, au, bu, av, bv))
    lo_x = np.maximum(au * x - bu, av * x - bv)
    hi_x = np.minimum(au * x + bu, av * x + bv)
    lo_y = np.maximum(au * y - bu, av * y - bv)
    hi_y = np.minimum(au * y + bu, av * y + bv)
    # the clip polygon lies in its rectangle: a disc missing it adds 0
    keep = (lo_x < hi_x) & (lo_y < hi_y) & _disc_meets_box(
        ccx[slow], ccy[slow], rad[slow], lo_x, lo_y, hi_x, hi_y)
    if keep.any():
        i, x, y = slow[keep], x[keep], y[keep]
        rect = np.stack([lo_x, lo_y, hi_x, lo_y, hi_x, hi_y, lo_x, hi_y],
                        axis=1)[keep].reshape(-1, 4, 2)
        # where e^2 |z|^2 > 1, Im(conj(w) z) <= 1: normal (z_y, -z_x)
        cut = e2 * zz[i] > 1.0
        poly, count = rect[:, [0, 1, 2, 3, 3]], np.full(i.size, 4)
        if cut.any():
            poly[cut], count[cut] = _clip_rows(rect[cut], y[cut], -x[cut])
        ok = count >= 3
        if ok.any():
            i = i[ok]
            area[i] = circle_polygon_area(ccx[i], ccy[i], rad[i], poly[ok])
    live = (np.abs(zx) <= gate) & (np.abs(zy) <= gate)
    return np.where(live, area, 0.0)


def _block_volumes(pairs, eps: float, half_width: float, grids) -> np.ndarray:
    """Volumes of the (p, q, r, s) rows of pairs, pair k on a grids[k]^2
    z-grid of which one quadrant is evaluated (see _quadrant)."""
    e2 = eps * eps
    bounds = _pair_bounds(pairs, e2, half_width)
    h = 2.0 * bounds[5] / np.asarray(grids)

    # every pair's quadrant, pair after pair, and its bounds at each point
    quads = [_quadrant(n) for n in grids]
    sizes = [weight.size for _, _, weight in quads]
    zx, zy, weight = (np.concatenate(v) for v in zip(*quads))
    point = np.repeat(np.vstack([bounds, h]), sizes, axis=1)
    lim, step = point[5], point[6]
    zx = -lim + zx * step
    zy = -lim + zy * step
    area = weight * _point_areas(zx, zy, e2, point)
    # each pair's points are one segment, summed pairwise whatever the block
    starts = np.cumsum([0, *sizes[:-1]])
    return np.add.reduceat(area, starts) * h * h


def _blocks(grids):
    """Runs of consecutive pairs, pair k on a grids[k]^2 z-grid, each as
    long as BLOCK_POINTS quadrant points allow and at least one pair long."""
    start, points = 0, 0
    for k, n in enumerate(grids):
        size = _quadrant(n)[2].size
        if k > start and points + size > BLOCK_POINTS:
            yield slice(start, k)
            start, points = k, 0
        points += size
    yield slice(start, len(grids))


def _settle_heap():
    """Allocate and free one 1 MB array, which the C allocator maps on its
    own.

    glibc's malloc then raises its mmap threshold to 1 MB and its trim
    threshold to 2 MB, so the block temporaries (a few hundred kB each)
    stay on its heap and the heap is not trimmed between blocks.  Without
    it, a process whose heap held no free room below its top for a block
    grew the heap for every block and trimmed it after, about 50 fresh
    page faults a block, and took 25-30 % longer per value; which
    processes did so changed with the sizes of unrelated allocations at
    start-up.  Under other allocators it only allocates and frees.
    """
    np.empty(1 << 17)


def _pair_volume(p: int, q: int, eps: float, half_width: float,
                 n_grid: int) -> float:
    """Volume of one canonical pair on an n_grid^2 z-grid: a block of one."""
    pairs = np.array([(p, q, *bezout_complement(p, q))])
    return float(_block_volumes(pairs, eps, half_width, [n_grid])[0])


def torus_exact_oracle(
    eps,
    grid_resolution: int = DEFAULT_Z_GRID,
    half_width: float = 2.0,
    pq_max: int = DEFAULT_PQ_MAX,
) -> float:
    """Cone-set measure on the torus chart by deterministic integration.

    eps is one radius (a number or a 0-d array) or a sequence of radii.
    Supports k = 1 for eps < 1 (the disjoint sum over primitive_pairs
    (pq_max), one representative pair integrated per symmetry orbit of the
    box and weighted by the orbit size, see module docstring) and eps >=
    Hermite bound 1.0747 (saturated: the full cone volume,
    cone_volume_quadrature(half_width); grid_resolution and pq_max are then
    unused).  For k = 2 the locus is empty whenever
    eps1 * eps2 < 1.
    Radii and half_width are real numbers, grid_resolution and pq_max
    integers, by the rule of ``flatscale.checks`` (no bool, no string).
    Raises ValueError, naming the argument, on an empty eps, a radius that
    is not a finite positive real number, a grid_resolution or pq_max that
    is not an integer >= 1, or a half_width that is not a finite positive
    real number.
    """
    eps = radii(eps, "eps")
    for name, value in (("grid_resolution", grid_resolution), ("pq_max", pq_max)):
        if integer(value, name) < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    _check_half_width(half_width)
    if len(eps) == 1:
        e = eps[0]
        if e >= HERMITE_SHORTEST:
            return cone_volume_quadrature(half_width)
        if e >= 1.0:
            raise ValueError(
                "radii in [1, 1.0747) are outside the oracle's disjointness "
                "and saturation regimes")
        _settle_heap()
        pairs, weights = _orbit_table(pq_max)
        grids = np.where(np.abs(pairs[:, :2]).max(axis=1) <= 4, grid_resolution,
                         max(24, grid_resolution // 2)).tolist()
        total = 0.0
        for block in _blocks(grids):
            volumes = _block_volumes(pairs[block], e, half_width, grids[block])
            for weight, volume in zip(weights[block], volumes):
                total += weight * volume  # in representative order
        return float(total)
    if len(eps) == 2:
        if eps[0] * eps[1] < 1.0:
            return 0.0  # covolume bound: two independent short vectors
        raise ValueError("k = 2 torus oracle defined only for eps1*eps2 < 1")
    raise ValueError("oracle supports k in {1, 2}")


def _check_half_width(half_width) -> None:
    """Raise a ValueError unless ``half_width`` is a finite positive real."""
    h = real(half_width, "half_width")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"half_width must be finite and positive, got {half_width}")


def cone_volume_quadrature(half_width: float = 2.0) -> float:
    """The cone volume V(h) of the module docstring, h = half_width.

    X - Y is symmetric, so the integral there equals 1/2 - P(X - Y > c),
    and P(X - Y > c) = int_{-1}^{1-c} f(y) G(-y - c) dy because
    1 - G(x) = G(-x).  One quad call over s = y + 1 in [0, 2 - c], split
    where the integrand is singular (y = -c and y = 0), evaluates it.  For
    h <= 1/sqrt(2) the range is empty and V(h) = (2h)^4 / 2 exactly.
    Raises ValueError for a half_width that is not a finite positive real
    number.
    """
    _check_half_width(half_width)
    from scipy import integrate  # only this saturated case needs scipy

    c = 1.0 / (half_width * half_width)

    def tail(s):
        y, x = s - 1.0, 1.0 - c - s  # x = -y - c
        x_log_x = x * math.log(abs(x)) if x else 0.0
        return -0.25 * math.log(abs(y)) * (1.0 + x - x_log_x)

    end = max(2.0 - c, 0.0)
    points = [b for b in (1.0 - c, 1.0) if 0.0 < b < end]
    val, _ = integrate.quad(tail, 0.0, end, points=points,
                            epsabs=1e-14, epsrel=1e-13, limit=200)
    return (2.0 * half_width) ** 4 * (0.5 - val)
