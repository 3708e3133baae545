"""Reference for ``SurfaceBatch.delaunay``: the same rounds, one surface at
a time, on Python lists.

Each round recomputes every cot and every candidate, walks the candidates
one by one, and sums rows as Python ints; the float arithmetic is that of
the batched rounds, in the same order, so a surface must come out the same
bit for bit.
"""

import math

from flatscale.surface import DELAUNAY_ROUNDS

TOL = 1e-9  # a candidate has cot(alpha) + cot(beta) < -TOL
FLOOR = 2**31  # rows may grow up to max(FLOOR, what the surface came with)


def _div(a, b):
    # a / b with IEEE results where Python raises
    if b:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _cot(ex, ey, b, c):
    # minus the cot of the angle opposite the half-edge that b, c follow
    return _div(ex[b] * ex[c] + ey[b] * ey[c], ex[b] * ey[c] - ey[b] * ex[c])


def scores(ex, ey, nbr):
    """Minus the cot of the angle opposite each half-edge of one surface,
    and the earlier half-edge of each candidate edge, in order."""
    n = len(nbr)
    cot = [_cot(ex, ey, h + (1, 1, -2)[h % 3], h + (2, -1, -1)[h % 3])
           for h in range(n)]
    cand = [h for h in range(n) if h < nbr[h] and cot[h] + cot[nbr[h]] > TOL]
    return cot, cand


def scalar_delaunay(ex, ey, nbr, vert, rows, limit, rounds=DELAUNAY_ROUNDS):
    """One surface's rounds.  ``ex``, ``ey``, ``nbr``, ``vert`` and ``rows``
    are per half-edge, the neighbours local to the surface, the rows lists
    of ints; ``limit`` bounds every new row entry.  Returns the new lists
    and the number of rounds that changed something."""
    ex, ey, nbr, vert = list(ex), list(ey), list(nbr), list(vert)
    rows = [list(r) for r in rows]
    n = len(nbr)
    for h in range(n):  # the later half-edge of a pair: the negated earlier
        if h > nbr[h]:
            ex[h], ey[h] = -ex[nbr[h]], -ey[nbr[h]]
    nxt = [h + (1, 1, -2)[h % 3] for h in range(n)]
    prv = [h + (2, -1, -1)[h % 3] for h in range(n)]
    used = 0
    for _ in range(rounds):
        cot, cand = scores(ex, ey, nbr)
        if not cand:
            break
        changed = False

        # twist the two-triangle cylinders that a candidate crosses
        twisted, seen = set(), set()
        for h in cand:
            t, u = h // 3, nbr[h] // 3
            to_u = nbr[nxt[h]] // 3 == u
            if to_u == (nbr[prv[h]] // 3 == u):
                continue
            hc = prv[h] if to_u else nxt[h]
            hp, hq = nxt[hc], prv[hc]
            k = _div(ex[hp] * ex[hc] + ey[hp] * ey[hc],
                     ex[hc] * ex[hc] + ey[hc] * ey[hc])
            if not (math.isfinite(k) and 2 <= abs(round(k)) < 2**62):
                continue
            if min(t, u) in seen:
                continue
            seen.add(min(t, u))
            k = float(round(k))
            new_p = [a - int(k) * c for a, c in zip(rows[hp], rows[hc])]
            new_q = [a + int(k) * c for a, c in zip(rows[hq], rows[hc])]
            if max(map(abs, new_p + new_q), default=0) > limit:
                continue
            kx, ky = k * ex[hc], k * ey[hc]
            for side, x, y, r in ((hp, ex[hp] - kx, ey[hp] - ky, new_p),
                                  (hq, ex[hq] + kx, ey[hq] + ky, new_q)):
                far = nbr[side]
                ex[side], ey[side], rows[side] = x, y, r
                ex[far], ey[far], rows[far] = -x, -y, [-a for a in r]
            twisted.update((t, u))
            changed = True

        # flip the candidates on no twisted triangle that are the least,
        # by (cot sum, half-edge), in both their triangles
        key = {}
        live = [h for h in cand
                if h // 3 not in twisted and nbr[h] // 3 not in twisted]
        for h in live:
            s = cot[h] + cot[nbr[h]]
            for tri in (h // 3, nbr[h] // 3):
                key[tri] = min(key.get(tri, (math.inf, n)), (-s, h))
        for h in live:
            s = cot[h] + cot[nbr[h]]
            if key[h // 3] != (-s, h) or key[nbr[h] // 3] != (-s, h):
                continue
            g = nbr[h]
            t1, t2, u1, u2 = nxt[h], prv[h], nxt[g], prv[g]
            dr = [a + b for a, b in zip(rows[t2], rows[u1])]
            if max(map(abs, dr), default=0) > limit:
                continue
            dx, dy = ex[t2] + ex[u1], ey[t2] + ey[u1]
            vh, vg = vert[t2], vert[u2]
            # the outer edges turn one place: u2 -> t1 -> t2 -> u1 -> u2
            src, dst = (u2, t1, t2, u1), (t1, t2, u1, u2)
            for a in (ex, ey, vert, rows):
                moved = [a[i] for i in src]
                for i, v in zip(dst, moved):
                    a[i] = v
            old = {i: nbr[i] for i in src}
            to = dict(zip(src, dst))
            for i, j in zip(src, dst):
                p = to.get(old[i], old[i])
                nbr[j], nbr[p] = p, j
            ex[h], ey[h], rows[h], vert[h] = dx, dy, dr, vh
            ex[g], ey[g], rows[g], vert[g] = -dx, -dy, [-a for a in dr], vg
            changed = True
        if not changed:
            break
        used += 1
    return ex, ey, nbr, vert, rows, used


def scalar_delaunay_batch(batch, rounds=DELAUNAY_ROUNDS):
    """``scalar_delaunay`` of every surface of a ``SurfaceBatch``, the rows
    cut to each surface's length; returns per surface (ex, ey, nbr, vert,
    rows, rounds used), with nbr local to the surface."""
    out = []
    for s in range(len(batch)):
        a, b = int(batch.start[s]), int(batch.start[s + 1])
        rows = batch.coeffs[:, a:b].T.tolist()
        limit = max(FLOOR, max((abs(c) for r in rows for c in r), default=0))
        out.append(scalar_delaunay(
            batch.edge[0, a:b].tolist(), batch.edge[1, a:b].tolist(),
            (batch.neighbor[a:b] - a).tolist(),
            batch.corner_vertex[a:b].tolist(), rows, limit, rounds))
    return out
