"""Closed forms for periods across plumbing annuli and degenerating
cylinders, plus the differential-matching identity at glued points."""

from __future__ import annotations

import cmath

import numpy as np


def annulus_period(b: int, r: complex, T: complex, p: complex,
                   log_T: complex) -> complex:
    """Period of (u^(b-1) + T^b r / u) du along a path from T to p.

    ``log_T`` fixes the branch (supply the sector log); the truncation
    point p takes the principal branch.
    """
    if b < 1:
        raise ValueError("b must be a positive integer")
    Tb = T ** b
    return (p ** b - Tb) / b + Tb * r * (cmath.log(p) - log_T)


def cylinder_cross_period(r: complex, t: complex, log_t: complex) -> complex:
    """Crossing period (r/2) log t of a degenerating cylinder with residue r.

    ``log_t`` must be the sector branch of log at the horizontal node
    parameter t.
    """
    return 0.5 * r * log_t


def annulus_integrand(b: int, r: complex, T: complex):
    """The 1-form coefficient u^(b-1) + T^b r/u on the plumbing annulus."""
    Tb = T ** b

    def f(u: complex) -> complex:
        return u ** (b - 1) + Tb * r / u

    return f


def differential_matching_residual(b: int, r: complex, T: complex,
                                   v: complex) -> float:
    """Mismatch of the glued differentials at the point u = T / v.

    The upper form (u^(b-1) + T^b r/u) du pulled back through u v = T must
    equal minus T^b times the lower form (v^(-b-1) + r/v) dv.  Returns the
    relative defect at one point.
    """
    u = T / v
    du_dv = -T / (v * v)
    upper = (u ** (b - 1) + (T ** b) * r / u) * du_dv
    lower = -(T ** b) * (v ** (-b - 1) + r / v)
    scale = max(abs(upper), abs(lower), 1e-300)
    return abs(upper - lower) / scale


def matching_residuals(b: int, r: complex, T: complex, n: int = 100,
                       seed: int = 0) -> np.ndarray:
    """Residuals at n random points of the gluing circle |v| = sqrt(|T|)."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    rho = np.sqrt(abs(T))
    return np.array([
        differential_matching_residual(b, r, T, rho * cmath.exp(1j * th))
        for th in theta])
