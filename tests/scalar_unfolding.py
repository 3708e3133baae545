"""Reference for the batched unfolding: the scalar breadth-first search.

One deque per corner, one node at a time, with the float arithmetic the
batched search must reproduce in the same order.  Classes are summed as
tuples of Python ints.  Returns the connections in canonical order and the
number of chain nodes expanded.  With a ``budget`` it raises
``UnfoldingBudgetError`` once it has expanded more nodes than that, so it
raises exactly when the batched search at that budget does.

It is the only source of the two things the batched search no longer
gives: the chain of crossed triangles behind each connection, which it
records in its own type (``ScalarConnection.segment_chain``), and the
search over every direction (``keep_orientations=True``), which returns
both orientations of each connection and does not clip the corner wedges
to the kept half plane.  By default it clips and filters as the batched
search does.
"""

import math
from collections import deque
from typing import NamedTuple

from flatscale.unfolding import (
    _BELOW_NEG,
    _BELOW_POS,
    _SIN_DOWN,
    PAIR_EPS,
    WEDGE_EPS,
    UnfoldingBudgetError,
)


class ScalarConnection(NamedTuple):
    """A saddle connection as the batch reports it, with the (triangle,
    entry edge) records of the triangles it crosses, from its root corner
    on."""

    holonomy: complex
    start_zero: int
    end_zero: int
    class_vector: tuple | None
    segment_chain: tuple


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


def scalar_unfold(surface, length_bound, keep_orientations=False, budget=None):
    # the surface's arrays as nested lists of Python scalars
    T, tables = surface.n_triangles, surface._tables
    E = surface._edges.tolist()
    nbr = [[None if g < 0 else divmod(g, 3) for g in row]
           for row in tables.neighbor.reshape(T, 3).tolist()]
    vert = tables.corner_vertex.reshape(T, 3).tolist()
    cls = ((None,) * 3,) * T if tables.coeffs is None else [
        [tuple(r) for r in tri]
        for tri in tables.coeffs.reshape(T, 3, tables.dim).tolist()]
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
            found[key] = ScalarConnection(hol, v0, v1, c, chain)

    for t0 in range(surface.n_triangles):
        for c0 in range(3):
            v0 = vert[t0][c0]
            corner = (t0, c0)
            ea = E[t0][c0]
            eb = -E[t0][(c0 + 2) % 3]
            ca = cls[t0][c0]
            chain0 = ((t0, c0),)
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
                if budget is not None and nodes > budget:
                    raise UnfoldingBudgetError(
                        f"scalar unfolding exceeded budget of {budget} nodes")
                e1i, e2i = (e + 1) % 3, (e + 2) % 3
                apex = pb + E[t][e1i]
                capex = _add(cpb, cls[t][e1i])
                r2 = apex.real * apex.real + apex.imag * apex.imag
                rm = math.sqrt(r2)
                cl = lo.real * apex.imag - lo.imag * apex.real
                ch = apex.real * hi.imag - apex.imag * hi.real
                thr = eps * rm
                newchain = chain + ((t, e),)
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
