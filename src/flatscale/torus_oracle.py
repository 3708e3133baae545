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

Each pair is evaluated with array operations.  Grid points whose disc lies
inside every w-square with area <= 1 take pi r^2 directly.  For the rest
the w-squares intersect to one (N, 4) array of rectangles; rows where
eps^2 |z|^2 > 1 are clipped by the half plane row by row, and every row is
padded to five vertices by repeating a vertex (a zero-length edge adds
exactly 0).  One call to circle_polygon_area then gives all their areas:
each edge adds an arc, a chord and an arc, split at its entry and exit
parameters on the circle clamped to the edge.  Memory stays at one pair's
grid, at most grid_resolution^2 rows.

No geodesic unfolding is involved anywhere in this module.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from scipy import integrate

DEFAULT_Z_GRID = 48
DEFAULT_PQ_MAX = 24
HERMITE_SHORTEST = (4.0 / 3.0) ** 0.25  # max of lambda_1 over unit-area lattices


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
    g, x, y = _ext_gcd(p, q)
    # p x + q y = 1  ->  s = x, r = -y
    s, r = x, -y
    # reduce: (r, s) -> (r + t p, s + t q) keeps p s - q r = 1
    t = round(-(r * p + s * q) / (p * p + q * q))
    return r + t * p, s + t * q


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_s, s = s, old_s - k * s
        old_t, t = t, old_t - k * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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


def _clip_halfplane(poly, nx, ny, c):
    """Clip polygon by n . x <= c (Sutherland-Hodgman)."""
    out = []
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        in1 = nx * x1 + ny * y1 <= c
        in2 = nx * x2 + ny * y2 <= c
        if in1:
            out.append((x1, y1))
        if in1 != in2:
            d = (c - nx * x1 - ny * y1) / (nx * (x2 - x1) + ny * (y2 - y1))
            out.append((x1 + d * (x2 - x1), y1 + d * (y2 - y1)))
    return out


def _clip_rows(poly, nx, ny):
    """Clip each convex polygon poly[i] ((N, m, 2)) by nx[i] x + ny[i] y <= 1.

    Row-wise Sutherland-Hodgman with the arithmetic of _clip_halfplane.
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


def _poly_area(poly):
    n = len(poly)
    if n < 3:
        return 0.0
    return 0.5 * abs(sum(
        poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
        for i in range(n)))


# -- per-pair volume --------------------------------------------------------------


def _pair_volume(p: int, q: int, eps: float, half_width: float,
                 n_grid: int) -> float:
    H = half_width
    e2 = eps * eps
    r, s = bezout_complement(p, q)
    # u = s w - q z, v = -r w + p z
    # z-gates (when the w-coefficient vanishes) and w-squares otherwise
    gates = []
    squares = []  # (alpha, beta): w-square center alpha*z, half-side beta
    if s == 0:
        gates.append(abs(q))
    else:
        squares.append((q / s, H / abs(s)))
    if r == 0:
        gates.append(abs(p))
    else:
        squares.append((p / r, H / abs(r)))

    # z-domain bound: the disc lies in |w| <= eps^2 |z|, so a w-square
    # forces |alpha| |z| / sqrt(2) <= beta + eps^2 |z|
    lim = math.inf
    for g in gates:
        lim = min(lim, H / g)
    for alpha, beta in squares:
        a = abs(alpha) / math.sqrt(2.0)
        if a > e2:
            lim = min(lim, beta / (a - e2))
    if not math.isfinite(lim):
        raise RuntimeError("unbounded z-domain; invalid pair data")

    n = n_grid
    h = 2.0 * lim / n
    axis = -lim + (np.arange(n) + 0.5) * h
    zx, zy = np.meshgrid(axis, axis, indexing="ij")
    zx, zy = zx.ravel(), zy.ravel()
    live = np.ones(zx.size, dtype=bool)
    for g in gates:
        live &= (np.abs(zx) <= H / g) & (np.abs(zy) <= H / g)
    if not live.any():
        return 0.0
    zx, zy = zx[live], zy[live]
    zz = zx * zx + zy * zy
    rad = 0.5 * e2 * np.sqrt(zz)
    ccx, ccy = 0.5 * e2 * zy, -0.5 * e2 * zx

    # fast path: disc entirely inside every w-square and A <= 1
    inside = np.ones(zx.size, dtype=bool)
    for alpha, beta in squares:
        inside &= (np.abs(ccx - alpha * zx) + rad <= beta)
        inside &= (np.abs(ccy - alpha * zy) + rad <= beta)
    inside &= e2 * zz <= 1.0
    area = np.where(inside, math.pi * rad * rad, 0.0)

    slow = np.nonzero(~inside)[0]
    if slow.size:
        x, y = zx[slow], zy[slow]
        # clip polygon: intersection of the w-squares (axis-aligned)
        lo_x = lo_y = np.full(slow.size, -math.inf)
        hi_x = hi_y = np.full(slow.size, math.inf)
        for alpha, beta in squares:
            lo_x = np.maximum(lo_x, alpha * x - beta)
            hi_x = np.minimum(hi_x, alpha * x + beta)
            lo_y = np.maximum(lo_y, alpha * y - beta)
            hi_y = np.minimum(hi_y, alpha * y + beta)
        rect = np.stack([lo_x, lo_y, hi_x, lo_y, hi_x, hi_y, lo_x, hi_y],
                        axis=1).reshape(-1, 4, 2)
        # where e^2 |z|^2 > 1, Im(conj(w) z) <= 1: normal (z_y, -z_x)
        cut = e2 * zz[slow] > 1.0
        poly, count = rect[:, [0, 1, 2, 3, 3]], np.full(slow.size, 4)
        if cut.any():
            poly[cut], count[cut] = _clip_rows(rect[cut], y[cut], -x[cut])
        ok = (lo_x < hi_x) & (lo_y < hi_y) & (count >= 3)
        if ok.any():
            i = slow[ok]
            area[i] = circle_polygon_area(ccx[i], ccy[i], rad[i], poly[ok])
    return float(area.sum() * h * h)


@functools.lru_cache(maxsize=8)
def _cached_cone_volume(half_width: float) -> float:
    return cone_volume_quadrature(half_width)


def torus_exact_oracle(
    eps,
    grid_resolution: int = DEFAULT_Z_GRID,
    half_width: float = 2.0,
    pq_max: int = DEFAULT_PQ_MAX,
) -> float:
    """Cone-set measure on the torus chart by deterministic integration.

    Supports k = 1 for eps < 1 (disjoint primitive-pair sum, see module
    docstring) and eps >= Hermite bound 1.0747 (saturated: full cone
    volume).  For k = 2 the locus is empty whenever eps1 * eps2 < 1.
    Raises ValueError, naming the argument, on a radius that is not finite
    and positive, a grid_resolution or pq_max that is not an integer >= 1,
    or a half_width that is not finite and positive.
    """
    eps = [float(e) for e in (eps if hasattr(eps, "__len__") else [eps])]
    if not all(math.isfinite(e) and e > 0.0 for e in eps):
        raise ValueError(f"eps: every radius must be finite and positive, got {eps}")
    for name, value in (("grid_resolution", grid_resolution), ("pq_max", pq_max)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ValueError(f"half_width must be finite and positive, got {half_width}")
    if len(eps) == 1:
        e = eps[0]
        if e >= HERMITE_SHORTEST:
            return _cached_cone_volume(half_width)
        if e >= 1.0:
            raise ValueError(
                "radii in [1, 1.0747) are outside the oracle's disjointness "
                "and saturation regimes")
        total = 0.0
        for p, q in primitive_pairs(pq_max):
            m = max(abs(p), abs(q))
            n = grid_resolution if m <= 4 else max(24, grid_resolution // 2)
            total += _pair_volume(p, q, e, half_width, n)
        return total
    if len(eps) == 2:
        if eps[0] * eps[1] < 1.0:
            return 0.0  # covolume bound: two independent short vectors
        raise ValueError("k = 2 torus oracle defined only for eps1*eps2 < 1")
    raise ValueError("oracle supports k in {1, 2}")


def strip_box_area(nx, ny, c_lo, c_hi, half_width):
    """Exact area of {x in [-H,H]^2 : c_lo <= n . x <= c_hi}."""
    H = half_width
    poly = [(-H, -H), (H, -H), (H, H), (-H, H)]
    poly = _clip_halfplane(poly, nx, ny, c_hi)
    if len(poly) >= 3:
        poly = _clip_halfplane(poly, -nx, -ny, -c_lo)
    return _poly_area(poly)


def cone_volume_quadrature(half_width: float = 2.0, tol: float = 1e-9) -> float:
    """Volume of {(u,v) in box: 0 < Im(conj(u) v) <= 1} by 2-d adaptive
    quadrature over u of the exact strip-in-square area in v."""
    H = half_width

    def inner(b, a):
        # v-area of {0 < a t - b s <= 1}: normal (-b, a) in (s, t)
        return strip_box_area(-b, a, 0.0, 1.0, H)

    val, _ = integrate.dblquad(inner, -H, H, -H, H,
                               epsabs=tol * 16 * H * H, epsrel=1e-8)
    return val
