"""Complex path integration by adaptive quadrature (independent oracle
route for the closed-form period formulas)."""

from __future__ import annotations

import cmath

from scipy import integrate

QUAD_TOL = 1e-11  # absolute and relative tolerance of each scipy.quad


def path_integral(f, z_of_s, dz_ds) -> complex:
    """Integral of f(z) dz along z(s), s in [0, 1], via scipy.quad to
    ``QUAD_TOL``."""

    def re(s):
        return (f(z_of_s(s)) * dz_ds(s)).real

    def im(s):
        return (f(z_of_s(s)) * dz_ds(s)).imag

    re_val, _ = integrate.quad(re, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                               limit=400)
    im_val, _ = integrate.quad(im, 0.0, 1.0, epsabs=QUAD_TOL, epsrel=QUAD_TOL,
                               limit=400)
    return complex(re_val, im_val)


def log_segment_integral(f, log_a: complex, log_b: complex) -> complex:
    """Integral of f along the log-linear path exp((1-s) log_a + s log_b).

    The path winds exactly as the chosen logs dictate, so the comparison
    against branch-aware closed forms is well posed.
    """
    dlog = log_b - log_a

    def z(s):
        return cmath.exp((1.0 - s) * log_a + s * log_b)

    return path_integral(f, z, lambda s: z(s) * dlog)
