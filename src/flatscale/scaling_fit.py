"""Weighted log-log regression of cone-measure estimates against radii."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import NotRealError, radii, real

MIN_POINTS = 4  # a strict fit needs this many distinct radii per axis
MAX_REL_STDERR = 0.20  # and every relative standard error below this


class DegenerateFitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    slopes: tuple[float, ...]          # per-axis exponents
    slope_stderr: tuple[float, ...]
    ci95: tuple[tuple[float, float], ...]
    joint_slope: float                 # exponent against log(eps_1 * ... * eps_k)
    joint_stderr: float
    intercept: float
    r_squared: float


def fit_scaling_exponent(results, strict: bool = True) -> FitResult:
    """Fit log(estimate) = c + sum_i slope_i log(eps_i) by weighted least
    squares, weights from the delta-method log-variances.

    ``results`` is a sequence of (eps_vector, estimate, stderr); a scalar
    eps (a 0-d array too) is one radius.  Every row needs real numbers (no
    bool and no string, the rule of ``flatscale.checks``): the same number
    k >= 1 of finite positive radii, a finite positive estimate and a finite
    stderr >= 0; any other row, and a ``results`` that is not a
    sequence of triples, raises ``DegenerateFitError``.  With ``strict``
    the preconditions are enforced too: at least ``MIN_POINTS`` distinct
    radii per axis and every relative standard error below
    ``MAX_REL_STDERR``.  Rows with fewer than two distinct products
    eps_1 * ... * eps_k (one radius, or one radius vector repeated) fix no
    slope and raise ``DegenerateFitError`` in either mode; the per-axis
    split of a grid whose radii move together (a diagonal grid) is the
    minimum-norm one.
    """
    try:
        results = list(results)
    except TypeError:
        raise DegenerateFitError(
            f"results {results!r} is not a sequence of rows") from None
    rows = []
    for row in results:
        try:
            eps, est, se = row
        except (TypeError, ValueError):
            raise DegenerateFitError(
                f"row {row!r} is not an (eps, estimate, stderr) triple") from None
        try:
            rows.append((radii(eps, "eps"), real(est, "estimate"),
                         real(se, "stderr")))
        except NotRealError as err:
            raise DegenerateFitError(f"row {row!r} is not numeric: {err}") from None
        except ValueError as err:
            raise DegenerateFitError(f"row {row!r}: {err}") from None
    if not rows:
        raise DegenerateFitError("no data")
    k = len(rows[0][0])
    for eps, est, se in rows:
        if len(eps) != k:
            raise DegenerateFitError(
                f"radii {eps} have {len(eps)} entries, the first row {k}")
        if not math.isfinite(est):
            raise DegenerateFitError(
                f"estimate {est} at radii {eps} is not finite")
        if not (math.isfinite(se) and se >= 0):
            raise DegenerateFitError(
                f"stderr {se} at radii {eps} must be finite and >= 0")
    zeros = [eps for eps, est, _ in rows if est <= 0]
    if zeros:
        raise DegenerateFitError(
            f"zero estimates at radii {zeros}; cannot fit in log space")
    # log(eps_1 * ... * eps_k), the joint fit's regressor
    log_product = [sum(math.log(e) for e in eps) for eps, _, _ in rows]
    if len(set(log_product)) < 2:
        raise DegenerateFitError(
            f"radii {sorted({eps for eps, _, _ in rows})} have fewer than two "
            f"distinct products eps_1 * ... * eps_k; no slope can be fitted")
    if strict:
        for axis in range(k):
            vals = {eps[axis] for eps, _, _ in rows}
            if len(vals) < MIN_POINTS:
                raise DegenerateFitError(
                    f"need >= {MIN_POINTS} distinct radii on axis {axis}")
        bad = [(eps, se / est) for eps, est, se in rows if se / est >= MAX_REL_STDERR]
        if bad:
            raise DegenerateFitError(
                f"relative standard error >= {MAX_REL_STDERR:.0%} at {bad}")

    y = np.array([math.log(est) for _, est, _ in rows])
    sigma = np.array([se / est for _, est, se in rows])
    sigma = np.maximum(sigma, 1e-12)
    w = 1.0 / sigma ** 2
    X = np.column_stack(
        [np.ones(len(rows))] +
        [[math.log(eps[a]) for eps, _, _ in rows] for a in range(k)])
    beta, cov = _wls(X, y, w)
    resid = y - X @ beta
    ybar = np.sum(w * y) / np.sum(w)
    sst = np.sum(w * (y - ybar) ** 2)
    ssr = np.sum(w * resid ** 2)
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0

    slopes = tuple(float(b) for b in beta[1:])
    errs = tuple(float(math.sqrt(cov[i + 1, i + 1])) for i in range(k))
    ci = tuple((s - 1.959964 * e, s + 1.959964 * e)
               for s, e in zip(slopes, errs))

    # joint fit against the product of radii
    Xj = np.column_stack([np.ones(len(rows)), log_product])
    betaj, covj = _wls(Xj, y, w)
    joint = float(betaj[1])
    jerr = float(math.sqrt(max(covj[1, 1], 0.0)))
    return FitResult(slopes, errs, ci, joint, jerr, float(beta[0]), float(r2))


def _wls(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares: the coefficients and their covariance."""
    WX = X * w[:, None]
    cov = np.linalg.pinv(X.T @ WX)  # pinv: collinear designs (diagonal grids)
    return cov @ (WX.T @ y), cov
