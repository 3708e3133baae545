"""Each plumbed family against an independent route.

The flat families build their plumbed surface exactly, so their designated
periods must be holonomies of saddle connections that the unfolding finds
on it.  The other families are checked through the fitted expansion
period = pert + c + f t + g t log t, whose t log t coefficient is -r/b,
and one annulus term against adaptive quadrature on the sector branch.
"""

import cmath
import math

import numpy as np
import pytest

from flatscale.families import (
    HorizontalCylinderFamily,
    IllConditionedFit,
    MarkedTorusFamily,
    NoninjectivityFamily,
    PlumbingParams,
    ResidueFamily,
    ThreeLevelFamily,
    _arc_period_vectors,
    reproduce_noninjectivity,
    verify_period_expansion,
)
from flatscale.plumbing import annulus_integrand
from flatscale.quadrature import log_segment_integral
from flatscale.sectors import SectorBranchError
from flatscale.surface import StratumSignature
from flatscale.unfolding import enumerate_saddle_connections

HOLONOMY_RTOL = 1e-12
G_COEFF_TOL = 1e-12


def holonomies(surface, length_bound):
    return np.array([sc.holonomy for sc in enumerate_saddle_connections(
        surface, length_bound, keep_orientations=True)])


def assert_is_holonomy(value, hols):
    err = np.abs(hols - value).min()
    assert err <= HOLONOMY_RTOL * abs(value), (value, err)


def arc_grid(family, moduli, fixed=None):
    """Parameters with t[-1] on the centre ray of its sector arc and the
    lower levels at ``fixed``."""
    ray = cmath.exp(1j * family.sector.vertical_arcs[-1].center)
    return [PlumbingParams(t={-1: m * ray, **(fixed or {})}) for m in moduli]


class TestMarkedTorusFamily:
    family = MarkedTorusFamily()

    @pytest.mark.parametrize("t", [0.01, 0.003 + 0.002j, 2e-4 + 1e-4j])
    def test_periods_are_holonomies(self, t):
        params = PlumbingParams(t={-1: t})
        surface = self.family.surface(params)
        assert surface.validate(StratumSignature((0, 0, 0, 0))).ok
        hols = holonomies(surface, 1.0)
        periods = self.family.periods(params)
        for cycle in ("cross_a", "cross_b", "bottom_rel", "top_a", "top_b"):
            assert_is_holonomy(periods[cycle], hols)
        # oriented from the lower endpoint: end minus start of the flat points
        top, low_a, low_b = self.family.marked_points(params)
        for cycle, flat in (("cross_a", top - low_a), ("cross_b", top - low_b),
                            ("bottom_rel", low_b - low_a)):
            assert abs(periods[cycle] - flat) <= HOLONOMY_RTOL * abs(flat)
        # the two bottom marked points collide: bottom_rel is the shortest
        # connection, of length |t| |1/v_a - 1/v_b| (about 0.8 |t|)
        shortest = np.abs(hols).min()
        assert shortest == pytest.approx(abs(periods["bottom_rel"]),
                                         rel=HOLONOMY_RTOL)
        fam = self.family
        assert shortest == pytest.approx(abs(t / fam.v_a - t / fam.v_b),
                                         rel=HOLONOMY_RTOL)
        assert 0.79 * abs(t) < shortest < 0.82 * abs(t)


class TestHorizontalCylinderFamily:
    family = HorizontalCylinderFamily()

    @pytest.mark.parametrize("t_h", [(0.01, 0.02), (1e-4, 3e-3)])
    def test_periods_are_holonomies(self, t_h):
        params = PlumbingParams(t_h={0: t_h[0], 1: t_h[1]})
        surface = self.family.surface(params)
        assert surface.validate(StratumSignature((2, 2, 0, 0))).ok
        periods = self.family.periods(params)
        assert set(periods) == {"core", "cross_a", "cross_b",
                                "torus_a", "torus_b"}
        hols = holonomies(surface, 1.01 * max(map(abs, periods.values())))
        for value in periods.values():
            assert_is_holonomy(value, hols)

    def test_cross_period_grows_like_log(self):
        # cross_a = twist + (r/2) log t with r = w / (2 pi i)
        fam = self.family
        for t in (1e-2, 1e-4):
            got = fam.period("cross_a", PlumbingParams(t_h={0: t, 1: t}))
            want = fam.twists[0] + 0.5 * fam.r * math.log(t)
            assert got == pytest.approx(want, rel=HOLONOMY_RTOL)

    def test_missing_horizontal_parameter_named(self):
        with pytest.raises(ValueError, match=r"t_h\[1\]"):
            self.family.period("cross_a", PlumbingParams(t_h={0: 0.01}))

    def test_no_vertical_expansion_named(self):
        # one level only: no level below the cycle to expand in
        grid = [PlumbingParams(t_h={0: t, 1: t}) for t in (1e-3, 1e-2, 1e-1)]
        with pytest.raises(IllConditionedFit, match="cross_a"):
            verify_period_expansion(self.family, "cross_a", grid)


class TestResidueFamily:
    r = 0.3 + 0.1j
    family = ResidueFamily(r)

    def test_fit_recovers_residue(self):
        grid = arc_grid(self.family, np.geomspace(1e-3, 1e-1, 9))
        fit = verify_period_expansion(self.family, "cross_1", grid)
        assert abs(fit.g_coeff + self.r) < G_COEFF_TOL
        assert abs(fit.c) < G_COEFF_TOL
        assert len(fit.residual_over_t) == 9
        assert fit.h_bound < 1e-10

    def test_annulus_term_matches_quadrature(self):
        # period = pert - p + (annulus term from T = t to p) + t * lower
        fam, p, t = self.family, 0.25, 0.02 * cmath.exp(0.3j)
        dec = fam.decomposition("cross_1")
        params = PlumbingParams(t={-1: t}, p=p)
        term = (fam.period("cross_1", params) - dec.perturbed_period(p)
                - t * dec.lower_terms[0].constant)
        log_t = fam.sector.vertical_arcs[-1].log(t)
        want = log_segment_integral(annulus_integrand(1, self.r, t),
                                    log_t, cmath.log(p))
        assert abs(term - want) < 1e-10 * abs(want)

    def test_narrow_grid_rejected(self):
        grid = arc_grid(self.family, np.geomspace(1e-2, 5e-2, 5))
        with pytest.raises(IllConditionedFit, match="decade"):
            verify_period_expansion(self.family, "cross_1", grid)

    def test_mixed_truncation_points_rejected(self):
        grid = arc_grid(self.family, np.geomspace(1e-3, 1e-1, 9))
        grid[0] = PlumbingParams(t=grid[0].t, p=0.3)
        with pytest.raises(IllConditionedFit, match="truncation point"):
            verify_period_expansion(self.family, "cross_1", grid)

    def test_t_off_the_arc_rejected(self):
        with pytest.raises(SectorBranchError):
            self.family.period("cross_1", PlumbingParams(t={-1: -0.01}))


class TestThreeLevelFamily:
    r = 0.3 + 0.1j
    family = ThreeLevelFamily(r)
    t2 = 0.02 * cmath.exp(0.05j)

    def test_fit_recovers_skipping_residue(self):
        # the skipping edge has T = t_{-1} t_{-2}, so g = -r t_{-2}
        grid = arc_grid(self.family, np.geomspace(1e-3, 1e-1, 9),
                        fixed={-2: self.t2})
        fit = verify_period_expansion(self.family, "cross_skip", grid)
        assert abs(fit.g_coeff + self.r * self.t2) < G_COEFF_TOL

    def test_missing_level_named(self):
        with pytest.raises(ValueError, match=r"t\[-2\]"):
            self.family.period("cross_skip", PlumbingParams(t={-1: 0.01}))


class TestNoninjectivityFamily:
    def test_t_and_minus_t_collide(self):
        rep = reproduce_noninjectivity(n_pairs=500)
        assert rep.period_distance == 0
        assert rep.coordinates_differ
        assert rep.sector_excludes_pair
        assert rep.sampled_pairs == 500
        assert rep.min_sample_distance > 0

    def test_min_distance_is_brute_force_minimum(self):
        vecs = _arc_period_vectors(NoninjectivityFamily(), 300, seed=0)
        d = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        got = reproduce_noninjectivity(n_pairs=300).min_sample_distance
        assert got == pytest.approx(d.min(), rel=1e-12)
