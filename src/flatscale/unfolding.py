"""Saddle connection enumeration by breadth-first geodesic unfolding.

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
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

from .surface import TranslationSurface

WEDGE_EPS = 1e-9  # relative angular tolerance for boundary coincidence
PAIR_EPS = 1e-12  # relative tolerance for the horizontal-direction tiebreak
DOWN = 1e-6  # angle below the real axis down to which the canonical search runs
_SIN_DOWN = math.sin(DOWN)
_BELOW_POS = complex(math.cos(DOWN), -_SIN_DOWN)   # angle -DOWN
_BELOW_NEG = complex(-math.cos(DOWN), -_SIN_DOWN)  # angle pi + DOWN


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


def _seg_dist2(a: complex, b: complex) -> float:
    # squared distance from the origin to segment [a, b]
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    if denom == 0.0:
        return a.real * a.real + a.imag * a.imag
    t = -(a.real * ab.real + a.imag * ab.imag) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    px = a.real + t * ab.real
    py = a.imag + t * ab.imag
    return px * px + py * py


def enumerate_saddle_connections(
    surface: TranslationSurface,
    length_bound: float,
    budget: int = 1_000_000,
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
    of the clipped search.
    """
    if length_bound <= 0:
        raise ValueError("length bound must be positive")
    E = surface._edges
    nbr = surface._neighbor
    vert = surface._corner_vertex
    coeffs = surface._coeffs
    L2 = length_bound * length_bound
    eps = WEDGE_EPS
    clip = not keep_orientations

    if coeffs:
        dim, shift, packed = _packed_classes(coeffs, budget)
    else:
        dim, shift, packed = None, 0, ((0, 0, 0),) * surface.n_triangles

    found = {}
    nodes = 0

    for t0 in range(surface.n_triangles):
        for c0 in range(3):
            v0 = vert[t0][c0]
            corner = (t0, c0)
            ea = E[t0][c0]
            eb = -E[t0][(c0 + 2) % 3]
            ca = packed[t0][c0]

            # The outgoing edge at this corner is itself a geodesic to the
            # next cone point; it is the closed low boundary of the wedge.
            la2 = ea.real * ea.real + ea.imag * ea.imag
            if la2 <= L2:
                _emit(found, corner, ea, v0, vert[t0][(c0 + 1) % 3],
                      ((t0, c0),) if record_chains else None, ca, dim, shift)

            # Continue through the far edge with both boundaries open.
            far = (c0 + 1) % 3
            nx = nbr[t0][far]
            if nx is None:
                continue
            mla = math.sqrt(la2)
            mlb = abs(eb)
            lo = complex(ea.real / mla, ea.imag / mla)
            hi = complex(eb.real / mlb, eb.imag / mlb)
            if lo.real * hi.imag - lo.imag * hi.real <= eps:
                continue
            if clip:
                # A corner wedge spans less than pi, so it meets the kept
                # arc [-DOWN, pi + DOWN] in one sub-wedge, or not at all
                # when both boundaries lie below it.
                lo_below = lo.imag < -_SIN_DOWN
                hi_below = hi.imag < -_SIN_DOWN
                if lo_below and hi_below:
                    continue
                if lo_below:
                    lo = _BELOW_POS
                elif hi_below:
                    hi = _BELOW_NEG
            if _seg_dist2(ea, eb) > L2:
                continue
            chain0 = ((t0, c0),) if record_chains else None
            # state: (tri, entry_edge, pos_cornerE, class_cornerE,
            #         pos_cornerE1, class_cornerE1, lo, hi, chain)
            t1, e1 = nx
            cb = packed[t0][(c0 + 2) % 3]
            # positions in the neighbor's frame: corner e1 at eb, corner e1+1 at ea
            queue = deque()
            queue.append((t1, e1, eb, -cb, ea, ca, lo, hi, chain0))
            while queue:
                st = queue.popleft()
                nodes += 1
                if nodes > budget:
                    raise UnfoldingBudgetError(
                        f"unfolding exceeded budget of {budget} nodes")
                t, e, pa, cpa, pb, cpb, lo, hi, chain = st
                e1i = (e + 1) % 3
                e2i = (e + 2) % 3
                apex = pb + E[t][e1i]
                capex = cpb + packed[t][e1i]
                r2 = apex.real * apex.real + apex.imag * apex.imag
                rm = math.sqrt(r2)
                cl = lo.real * apex.imag - lo.imag * apex.real
                ch = apex.real * hi.imag - apex.imag * hi.real
                thr = eps * rm
                newchain = chain + ((t, e),) if record_chains else None

                interior = cl > thr and ch > thr
                if interior and r2 <= L2:
                    _emit(found, corner, apex, v0, vert[t][e2i], newchain, capex,
                          dim, shift)

                # Far edge e+1 runs from corner e+1 (pb) to the apex; edge e+2
                # from the apex to corner e (pa).  Split the wedge at the apex
                # direction with open boundaries.
                if interior:
                    ap = complex(apex.real / rm, apex.imag / rm)
                    sub1 = (lo, ap)
                    sub2 = (ap, hi)
                elif cl <= thr:
                    sub1 = None      # apex at or before lo: nothing through e+1
                    sub2 = (lo, hi)
                else:
                    sub1 = (lo, hi)  # apex at or beyond hi
                    sub2 = None

                # The two child tests are _seg_dist2 inlined: squared
                # distance from the origin to the far edge, against L2.
                if sub1 is not None:
                    ax, ay = pb.real, pb.imag
                    bx = apex.real - ax
                    by = apex.imag - ay
                    denom = bx * bx + by * by
                    if denom == 0.0:
                        d2 = ax * ax + ay * ay
                    else:
                        s = -(ax * bx + ay * by) / denom
                        if s < 0.0:
                            s = 0.0
                        elif s > 1.0:
                            s = 1.0
                        px = ax + s * bx
                        py = ay + s * by
                        d2 = px * px + py * py
                    if d2 <= L2:
                        nx1 = nbr[t][e1i]
                        if nx1 is not None:
                            l1, h1 = sub1
                            if l1.real * h1.imag - l1.imag * h1.real > eps:
                                tn, en = nx1
                                queue.append((tn, en, apex, capex, pb, cpb,
                                              l1, h1, newchain))
                if sub2 is not None:
                    ax, ay = apex.real, apex.imag
                    bx = pa.real - ax
                    by = pa.imag - ay
                    denom = bx * bx + by * by
                    if denom == 0.0:
                        d2 = ax * ax + ay * ay
                    else:
                        s = -(ax * bx + ay * by) / denom
                        if s < 0.0:
                            s = 0.0
                        elif s > 1.0:
                            s = 1.0
                        px = ax + s * bx
                        py = ay + s * by
                        d2 = px * px + py * py
                    if d2 <= L2:
                        nx2 = nbr[t][e2i]
                        if nx2 is not None:
                            l2, h2 = sub2
                            if l2.real * h2.imag - l2.imag * h2.real > eps:
                                tn, en = nx2
                                queue.append((tn, en, pa, cpa, apex, capex,
                                              l2, h2, newchain))

    return _canonicalize(found.values(), keep_orientations)


@functools.lru_cache(maxsize=4096)
def _packed_classes(coeffs, budget: int):
    """Edge classes packed into one integer each: row c becomes sum c_i B^i
    with B = 2**shift.

    Packing is linear, so classes add as integers along a chain.  A
    developed position sums at most budget + 1 rows, so each coefficient
    stays below B / 2 in absolute value and unpacks exactly.  Surfaces from
    one builder key share ``coeffs``, so this runs once per key and budget.
    """
    dim = len(coeffs[0][0])
    cmax = max((abs(x) for tri in coeffs for row in tri for x in row), default=0)
    shift = (4 * (max(budget, 0) + 2) * max(cmax, 1)).bit_length()
    packed = tuple(tuple(sum(c << (shift * i) for i, c in enumerate(row))
                         for row in tri) for tri in coeffs)
    return dim, shift, packed


def _unpack(packed: int, dim: int, shift: int) -> tuple[int, ...]:
    """Balanced base-2**shift digits of ``packed``, lowest first."""
    base = 1 << shift
    half = base >> 1
    out = []
    for _ in range(dim):
        d = packed & (base - 1)
        if d >= half:
            d -= base
        out.append(d)
        packed = (packed - d) >> shift
    return tuple(out)


def _emit(found, corner, hol, v0, v1, chain, packed, dim, shift):
    # Keyed on the starting corner, not on the end points: homologous
    # connections share their holonomy but leave a zero at different corners.
    m = abs(hol)
    if m == 0.0:
        return
    q = 10.0 ** (9 - math.floor(math.log10(m)))
    key = (corner, round(hol.real * q), round(hol.imag * q))
    if key not in found:
        found[key] = SaddleConnection(
            hol, v0, v1, chain, None if dim is None else _unpack(packed, dim, shift))


def _canonicalize(connections, keep_orientations: bool):
    out = []
    for sc in connections:
        h = sc.holonomy
        if not keep_orientations:
            if h.imag < -PAIR_EPS * abs(h):
                continue
            if abs(h.imag) <= PAIR_EPS * abs(h) and h.real < 0:
                continue
        out.append(sc)
    out.sort(key=lambda s: (abs(s.holonomy),
                            math.atan2(s.holonomy.imag, s.holonomy.real),
                            s.start_zero, s.end_zero))
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
