"""The scalar lattice reduction, kept as the reference for
``reduce_lattice_bases``.

This is the Lagrange-Gauss loop that ``flatscale.surface.reduce_lattice_bases``
ran in complex arithmetic before its loop moved to real arrays, run on one
basis at a time; the tests check that the batch gives the same B and the
same reduced sides, bit for bit, and raises on the same bases.
"""

import math

LIMIT = 2.0**62  # |r1| + |m| |r0| must stay below it


def _dot(a: complex, b: complex) -> float:
    return a.real * b.real + a.imag * b.imag


def _product(basis, u: complex, v: complex) -> list[complex]:
    return [complex(b0) * u + complex(b1) * v for b0, b1 in basis]


def scalar_reduce_lattice_basis(u: complex, v: complex):
    """Reduce the positively oriented basis (u, v).

    Returns the reduced sides [u', v'] = B (u, v), computed as that product
    from (u, v), and B as a 2 x 2 list of ints; raises ValueError for a
    basis that is not finite and positively oriented, and before a step
    whose multiplier or new entries of B could reach 2**62.
    """
    u0, v0 = complex(u), complex(v)
    finite = all(map(math.isfinite, (u0.real, u0.imag, v0.real, v0.imag)))
    if not (finite and u0.real * v0.imag - u0.imag * v0.real > 0):
        raise ValueError("lattice bases must be finite and positively oriented")
    u, v = u0, v0
    rows = [[1, 0], [0, 1]]
    while True:
        norm = _dot(u, u)
        try:
            m = _dot(u, v) / norm
        except ZeroDivisionError:
            m = math.nan
        if math.isfinite(m):
            m = float(round(m))  # to the nearest integer, ties to even
        reach = [abs(r1) + abs(m) * abs(r0) for r0, r1 in zip(*rows)]
        if not all(r < LIMIT for r in reach):
            raise ValueError("lattice basis reduction would leave int64: a "
                             "basis is too close to degenerate")
        v = v - complex(m) * u
        rows[1] = [r1 - int(m) * r0 for r0, r1 in zip(*rows)]
        if not _dot(v, v) < norm:
            break
        u, v = v, -u
        rows = [rows[1], [-r for r in rows[0]]]
    reduced = _product(rows, u0, v0)
    if _dot(*reduced) < 0:
        rows = [rows[1], [-r for r in rows[0]]]
        reduced = _product(rows, u0, v0)
    return reduced, rows
