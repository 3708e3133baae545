"""The scalar ear clip, kept as the reference for ``ear_clip_batch``.

This is the corner-by-corner loop that ``flatscale.surface.ear_clip`` ran
before the batch routine replaced it; the tests check that the batch gives
the same index triples, and fails on the same polygons.
"""

from flatscale.surface import SurfaceError


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _point_in_triangle(p, a, b, c, eps):
    d1 = _cross(b - a, p - a)
    d2 = _cross(c - b, p - b)
    d3 = _cross(a - c, p - c)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def scalar_ear_clip(vertices) -> list[tuple[int, int, int]]:
    """Triangulate a simple positively oriented polygon by ear clipping.

    Returns triangles as triples of indices into the input vertex list;
    raises SurfaceError when some step finds no ear.
    """
    n = len(vertices)
    if n < 3:
        raise SurfaceError("polygon needs at least 3 vertices")
    scale = max(abs(v) for v in vertices)
    eps = 1e-12 * scale * scale
    idx = list(range(n))
    out = []
    while len(idx) > 3:
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
