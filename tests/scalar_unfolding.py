"""Reference for the batched unfolding: the scalar breadth-first search.

One deque per corner, one node at a time, with the float arithmetic the
batched search must reproduce in the same order.  Classes are summed as
tuples of Python ints.  Returns the connections in canonical order and the
number of chain nodes expanded.
"""

import math
from collections import deque

from flatscale.unfolding import (
    _BELOW_NEG,
    _BELOW_POS,
    _SIN_DOWN,
    PAIR_EPS,
    WEDGE_EPS,
    SaddleConnection,
)


def _seg_dist2(a, b):
    # squared distance from the origin to segment [a, b]
    ab = b - a
    denom = ab.real * ab.real + ab.imag * ab.imag
    if denom == 0.0:
        return a.real * a.real + a.imag * a.imag
    t = -(a.real * ab.real + a.imag * ab.imag) / denom
    t = min(max(t, 0.0), 1.0)
    px = a.real + t * ab.real
    py = a.imag + t * ab.imag
    return px * px + py * py


def _add(a, b):
    return None if a is None else tuple(x + y for x, y in zip(a, b))


def _neg(a):
    return None if a is None else tuple(-x for x in a)


def scalar_unfold(surface, length_bound, record_chains=False,
                  keep_orientations=False):
    E = surface._edges
    nbr = surface._neighbor
    vert = surface._corner_vertex
    coeffs = surface._coeffs
    cls = ((None,) * 3,) * surface.n_triangles if coeffs is None else coeffs
    L2 = length_bound * length_bound
    eps = WEDGE_EPS
    found = {}
    nodes = 0

    def emit(corner, hol, v0, v1, chain, c):
        m = abs(hol)
        if m == 0.0:
            return
        q = 10.0 ** (9 - math.floor(math.log10(m)))
        key = (corner, round(hol.real * q), round(hol.imag * q))
        if key not in found:
            found[key] = SaddleConnection(hol, v0, v1, chain, c)

    for t0 in range(surface.n_triangles):
        for c0 in range(3):
            v0 = vert[t0][c0]
            corner = (t0, c0)
            ea = E[t0][c0]
            eb = -E[t0][(c0 + 2) % 3]
            ca = cls[t0][c0]
            chain0 = ((t0, c0),) if record_chains else None
            la2 = ea.real * ea.real + ea.imag * ea.imag
            if la2 <= L2:
                emit(corner, ea, v0, vert[t0][(c0 + 1) % 3], chain0, ca)
            nx = nbr[t0][(c0 + 1) % 3]
            if nx is None:
                continue
            mla = math.sqrt(la2)
            mlb = abs(eb)
            lo = complex(ea.real / mla, ea.imag / mla)
            hi = complex(eb.real / mlb, eb.imag / mlb)
            if lo.real * hi.imag - lo.imag * hi.real <= eps:
                continue
            if not keep_orientations:
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
            queue = deque([(*nx, eb, _neg(cls[t0][(c0 + 2) % 3]), ea, ca,
                            lo, hi, chain0)])
            while queue:
                t, e, pa, cpa, pb, cpb, lo, hi, chain = queue.popleft()
                nodes += 1
                e1i, e2i = (e + 1) % 3, (e + 2) % 3
                apex = pb + E[t][e1i]
                capex = _add(cpb, cls[t][e1i])
                r2 = apex.real * apex.real + apex.imag * apex.imag
                rm = math.sqrt(r2)
                cl = lo.real * apex.imag - lo.imag * apex.real
                ch = apex.real * hi.imag - apex.imag * hi.real
                thr = eps * rm
                newchain = chain + ((t, e),) if record_chains else None
                interior = cl > thr and ch > thr
                if interior and r2 <= L2:
                    emit(corner, apex, v0, vert[t][e2i], newchain, capex)
                if interior:
                    ap = complex(apex.real / rm, apex.imag / rm)
                    sub1, sub2 = (lo, ap), (ap, hi)
                elif cl <= thr:
                    sub1, sub2 = None, (lo, hi)
                else:
                    sub1, sub2 = (lo, hi), None
                for sub, a, b, nxt, child in (
                        (sub1, pb, apex, nbr[t][e1i], (apex, capex, pb, cpb)),
                        (sub2, apex, pa, nbr[t][e2i], (pa, cpa, apex, capex))):
                    if sub is None or not _seg_dist2(a, b) <= L2 or nxt is None:
                        continue
                    l, h = sub
                    if l.real * h.imag - l.imag * h.real > eps:
                        queue.append((*nxt, *child, l, h, newchain))

    out = []
    for sc in found.values():
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
    return out, nodes
