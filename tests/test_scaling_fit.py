import math

import numpy as np
import pytest

from flatscale.scaling_fit import DegenerateFitError, fit_scaling_exponent


def synth(eps_grid, fn, rel_noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for eps in eps_grid:
        v = fn(eps)
        noise = rng.normal(0, rel_noise * v) if rel_noise else 0.0
        rows.append((eps, v + noise, max(rel_noise, 1e-3) * v))
    return rows


class TestExactPowerLaws:
    def test_k1_square(self):
        rows = synth([(e,) for e in (0.025, 0.05, 0.1, 0.2)], lambda e: 7.0 * e[0] ** 2)
        fit = fit_scaling_exponent(rows)
        assert fit.slopes[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_k2_product(self):
        grid = [(a, b) for a in (0.05, 0.1, 0.2, 0.4) for b in (0.05, 0.1, 0.2, 0.4)]
        rows = synth(grid, lambda e: e[0] ** 2 * e[1] ** 2)
        fit = fit_scaling_exponent(rows)
        assert fit.slopes[0] == pytest.approx(2.0, abs=1e-9)
        assert fit.slopes[1] == pytest.approx(2.0, abs=1e-9)

    def test_joint_slope_diagonal(self):
        rows = synth([(e, e) for e in (0.05, 0.1, 0.2, 0.4)],
                     lambda e: e[0] ** 2 * e[1] ** 2)
        fit = fit_scaling_exponent(rows)
        assert fit.joint_slope == pytest.approx(2.0, abs=1e-9)
        assert 0 < fit.joint_stderr < 1e-2


class TestNoise:
    def test_noisy_slope_within_ci(self):
        rows = synth([(e,) for e in (0.025, 0.05, 0.1, 0.2, 0.4)],
                     lambda e: 3.0 * e[0] ** 2, rel_noise=0.05, seed=3)
        fit = fit_scaling_exponent(rows)
        lo, hi = fit.ci95[0]
        assert lo <= 2.0 <= hi or abs(fit.slopes[0] - 2.0) < 0.2
        half = 1.959964 * fit.slope_stderr[0]
        assert (lo, hi) == pytest.approx((fit.slopes[0] - half, fit.slopes[0] + half))


class TestValidation:
    def test_zero_estimate_rejected(self):
        rows = [((0.1,), 0.0, 0.0), ((0.2,), 1.0, 0.01),
                ((0.4,), 4.0, 0.01), ((0.8,), 16.0, 0.01)]
        with pytest.raises(DegenerateFitError):
            fit_scaling_exponent(rows)

    def test_too_few_points(self):
        rows = synth([(e,) for e in (0.1, 0.2)], lambda e: e[0] ** 2)
        with pytest.raises(DegenerateFitError):
            fit_scaling_exponent(rows)

    def test_large_stderr_rejected(self):
        rows = [((e,), e ** 2, 0.5 * e ** 2) for e in (0.05, 0.1, 0.2, 0.4)]
        with pytest.raises(DegenerateFitError):
            fit_scaling_exponent(rows)
        fit = fit_scaling_exponent(rows, strict=False)
        assert fit.slopes[0] == pytest.approx(2.0, abs=1e-6)


K1_ROWS = [((e,), e ** 2, 1e-3 * e ** 2) for e in (0.05, 0.1, 0.2, 0.4)]


def with_row(row):
    return K1_ROWS[:3] + [row]


class TestMalformedRows:
    """Rows that cannot enter a log-log fit raise instead of being fitted."""

    def test_mixed_eps_lengths(self):
        with pytest.raises(DegenerateFitError, match="entries"):
            fit_scaling_exponent(K1_ROWS + [((0.3, 0.3), 0.09, 1e-4)])

    @pytest.mark.parametrize("eps", [0.0, -0.4, math.nan, math.inf])
    def test_bad_eps(self, eps):
        with pytest.raises(DegenerateFitError, match="finite and positive") as err:
            fit_scaling_exponent(with_row(((eps,), 0.16, 1e-4)), strict=False)
        assert "not numeric" not in str(err.value)

    def test_empty_eps(self):
        with pytest.raises(DegenerateFitError, match=r"row \(\(\), .*eps is empty"):
            fit_scaling_exponent(with_row(((), 0.16, 1e-4)), strict=False)

    def test_no_rows(self):
        with pytest.raises(DegenerateFitError, match="no data"):
            fit_scaling_exponent([])

    @pytest.mark.parametrize("est", [math.nan, math.inf])
    def test_nonfinite_estimate(self, est):
        with pytest.raises(DegenerateFitError, match="not finite"):
            fit_scaling_exponent(with_row(((0.4,), est, 1e-4)), strict=False)

    @pytest.mark.parametrize("se", [-1e-4, math.nan, math.inf])
    def test_bad_stderr(self, se):
        with pytest.raises(DegenerateFitError, match="stderr"):
            fit_scaling_exponent(with_row(((0.4,), 0.16, se)), strict=False)

    @pytest.mark.parametrize("row", [
        ("ab", 0.16, 1e-4), ((0.4, "ab"), 0.16, 1e-4), ((None,), 0.16, 1e-4),
        ((0.4,), "x", 1e-4), ((0.4,), 0.16, None),
        # True was read as radius 1.0 and "0.1" as 0.1
        ((True,), 0.16, 1e-4), (True, 0.16, 1e-4), (("0.4",), 0.16, 1e-4),
        ((0.4,), "0.16", 1e-4), ((0.4 + 0j,), 0.16, 1e-4),
    ], ids=["eps-str", "eps-entry", "eps-none", "estimate", "stderr",
            "eps-bool", "eps-scalar-bool", "eps-numeric-str", "estimate-str",
            "eps-complex"])
    def test_non_numeric_entries(self, row):
        with pytest.raises(DegenerateFitError, match="not numeric"):
            fit_scaling_exponent(with_row(row), strict=False)

    @pytest.mark.parametrize("results", [[(0.1, 0.2)] * 4, [0.1] * 4, None, 3],
                             ids=["pairs", "scalars", "none", "int"])
    def test_malformed_container(self, results):
        with pytest.raises(DegenerateFitError, match="triple|sequence"):
            fit_scaling_exponent(results, strict=False)


class TestScalarRadii:
    def test_zero_d_array_is_one_radius(self):
        """A 0-d array radius counts as one radius, as in ``scan_chart``."""
        rows = [(e, 0.1 * e ** 2, 1e-4) for e in (0.1, 0.2, 0.3, 0.4)]
        want = fit_scaling_exponent(rows)
        got = fit_scaling_exponent([(np.array(e), est, se) for e, est, se in rows])
        assert got == want
        assert got.slopes[0] == pytest.approx(2.0, abs=1e-9)


class TestOneProduct:
    """Rows with one product eps_1 * ... * eps_k fix no slope, strict or not."""

    @pytest.mark.parametrize("rows", [
        [(0.1, 0.01, 0.001)],                         # one point
        [(0.1, 0.01, 0.001), (0.1, 0.012, 0.001)],    # one radius twice
        [((0.1, 0.2), 0.01, 1e-4), ((0.1, 0.2), 0.02, 1e-4)],
        [((0.1, 0.2), 0.01, 1e-4), ((0.2, 0.1), 0.02, 1e-4)],
    ], ids=["one-point", "one-radius", "one-vector", "swapped-vector"])
    def test_raises_naming_the_radii(self, rows):
        # the first two gave slopes 1.683 +- 0.037 and 1.643 +- 0.023
        for strict in (False, True):
            with pytest.raises(DegenerateFitError, match=r"radii \[\(0\.1.*products"):
                fit_scaling_exponent(rows, strict=strict)

    def test_diagonal_grid_splits_evenly(self):
        """Two products on a diagonal grid: the per-axis split is the
        minimum-norm one, half the joint slope on each axis."""
        rows = [((e, e), e ** 4, 1e-3 * e ** 4) for e in (0.1, 0.2)]
        fit = fit_scaling_exponent(rows, strict=False)
        assert fit.joint_slope == pytest.approx(2.0, abs=1e-9)
        assert fit.slopes == pytest.approx((2.0, 2.0), abs=1e-9)
