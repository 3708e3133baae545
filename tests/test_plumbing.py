import cmath
import math

import numpy as np
import pytest

from flatscale.plumbing import (
    annulus_integrand,
    annulus_period,
    cylinder_cross_period,
    matching_residuals,
)
from flatscale.quadrature import log_segment_integral
from flatscale.sectors import Arc, MultiSector, SectorBranchError


class TestAnnulusPeriod:
    @pytest.mark.parametrize("b", [0, -1])
    def test_non_positive_b_rejected(self, b):
        with pytest.raises(ValueError, match="b must be a positive integer"):
            annulus_period(b, 0, 0.01, 0.5, log_T=cmath.log(0.01))

    def test_b1_no_residue(self):
        T, p = 0.01, 0.5
        got = annulus_period(1, 0, T, p, log_T=cmath.log(T))
        assert got == pytest.approx(p - T)

    def test_b1_with_residue_reference_value(self):
        T, p, r = 0.01, 0.5, 1.0
        want = (0.5 - 0.01) + 0.01 * (math.log(0.5) - math.log(0.01))
        got = annulus_period(1, r, T, p, log_T=cmath.log(T))
        assert got == pytest.approx(want, abs=1e-15)

    def test_T_to_zero_limit(self):
        p = 0.4
        for b in (1, 2, 3):
            vals = [annulus_period(b, 2.0, T, p, log_T=cmath.log(T))
                    for T in (1e-4, 1e-6, 1e-8)]
            assert abs(vals[-1] - p ** b / b) < 1e-5

    def test_matches_quadrature_random(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            b = int(rng.integers(1, 5))
            r = complex(*rng.uniform(-2, 2, 2))
            mod_T = 10 ** rng.uniform(-6, -1)
            arg_T = rng.uniform(-math.pi, math.pi)
            T = mod_T * cmath.exp(1j * arg_T)
            p = 0.25
            log_T = complex(math.log(mod_T), arg_T)
            want = log_segment_integral(annulus_integrand(b, r, T),
                                        log_T, cmath.log(p))
            got = annulus_period(b, r, T, p, log_T=log_T)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


class TestCylinderCrossPeriod:
    def test_real_log(self):
        t = math.exp(-4.0)
        got = cylinder_cross_period(2.0, t, log_t=math.log(t))
        assert got == pytest.approx(-4.0)

    def test_reference_value(self):
        got = cylinder_cross_period(1.0, 0.01, log_t=math.log(0.01))
        assert got == pytest.approx(0.5 * math.log(0.01))
        assert got == pytest.approx(-2.302585, abs=1e-6)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            r = complex(*rng.uniform(-2, 2, 2))
            mod_t = 10 ** rng.uniform(-6, -1)
            arg_t = rng.uniform(-math.pi, math.pi)
            t = mod_t * cmath.exp(1j * arg_t)
            log_t = complex(math.log(mod_t), arg_t)
            # path from 1 to sqrt(t) with the branch's square root
            want = log_segment_integral(lambda u: r / u, 0.0, 0.5 * log_t)
            got = cylinder_cross_period(r, t, log_t=log_t)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_growth_like_log(self):
        vals = [abs(cylinder_cross_period(1.0, t, log_t=math.log(t)))
                for t in (1e-2, 1e-4, 1e-8)]
        assert vals[2] == pytest.approx(2 * vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(2 * vals[0], rel=1e-12)


class TestDifferentialMatching:
    def test_identity_at_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(1, 5))
            r = complex(*rng.uniform(-2, 2, 2))
            T = 10 ** rng.uniform(-6, -1) * cmath.exp(1j * rng.uniform(-3, 3))
            res = matching_residuals(b, r, T, n=100, seed=int(rng.integers(1 << 30)))
            assert res.max() < 1e-12


class TestSectors:
    @pytest.mark.parametrize("width", [0.0, -0.1, 2 * math.pi, 7.0])
    def test_arc_width_rejected(self, width):
        with pytest.raises(ValueError, match=r"arc width must lie in \(0, 2\*pi\)"):
            Arc(0.0, width)

    def test_log_of_zero_rejected(self):
        with pytest.raises(ValueError, match="log of zero"):
            Arc(0.0, 1.0).log(0)
        assert not Arc(0.0, 1.0).contains(0)

    @pytest.mark.parametrize("eps", [0.0, -0.3, math.nan, math.inf])
    def test_sector_radius_rejected(self, eps):
        with pytest.raises(ValueError, match="sector radius must be positive"):
            MultiSector(eps)

    @pytest.mark.parametrize("eps", ["0.3", True, 0.3j, None])
    def test_sector_radius_not_real_named(self, eps):
        with pytest.raises(ValueError, match="eps holds .*, not a real number"):
            MultiSector(eps)

    def test_wide_horizontal_arc_rejected(self):
        with pytest.raises(ValueError, match="horizontal arcs have width pi/4"):
            MultiSector(0.3, horizontal_arcs={0: Arc(0.0, math.pi / 2)})

    @pytest.mark.parametrize("width", [math.pi / 4 + 1e-9, 1.0, 3.0])
    def test_wide_vertical_arc_rejected(self, width):
        """pi/(4 a_level) is at most pi/4, the width at a_level = 1."""
        with pytest.raises(ValueError, match="vertical arcs have at most width pi/4"):
            MultiSector(0.3, vertical_arcs={-1: Arc(0.0, width)})
        # the widest allowed, and the standard arcs of every a_level
        MultiSector(0.3, vertical_arcs={-1: Arc(0.0, math.pi / 4)})
        MultiSector.standard({-1: 1, -2: 3}, horizontal_edges=(0,))

    def test_arc_log_continuous(self):
        arc = Arc(0.1, math.pi / 4)
        zs = [cmath.exp(1j * (0.1 + s * math.pi / 4)) for s in
              np.linspace(0.01, 0.99, 50)]
        logs = [arc.log(z) for z in zs]
        diffs = np.diff([l.imag for l in logs])
        assert np.all(np.abs(diffs) < 0.1)

    def test_branch_error_off_arc(self):
        arc = Arc(0.0, math.pi / 4)
        with pytest.raises(SectorBranchError):
            arc.log(cmath.exp(1j * 2.0))

    def test_wrap_around_branch(self):
        # arc straddling the negative real axis: principal log would jump
        arc = Arc(math.pi - 0.1, math.pi / 4)
        z1 = cmath.exp(1j * (math.pi - 0.05))
        z2 = cmath.exp(1j * (math.pi + 0.05))
        l1, l2 = arc.log(z1), arc.log(z2)
        assert abs(l1 - l2) < 0.2

    def test_multisector_membership(self):
        ms = MultiSector.standard({-1: 2}, eps=0.3)
        assert ms.vertical_arcs[-1].width == pytest.approx(math.pi / 8)
        t_in = 0.1 * cmath.exp(1j * (math.pi / 16))
        assert ms.contains(t={-1: t_in})
        assert not ms.contains(t={-1: -t_in})
        assert not ms.contains(t={-1: 0.5 * cmath.exp(1j * 0.1)})

    def test_multisector_horizontal_membership(self):
        """Node parameters obey the same radius and arc rule as levels; an
        edge without an arc is bounded by the radius alone."""
        ms = MultiSector.standard({-1: 1}, horizontal_edges=(0,), eps=0.3)
        t_in = 0.1 * cmath.exp(1j * (math.pi / 8))
        assert ms.contains(t={-1: t_in}, t_h={0: t_in})
        assert not ms.contains(t={-1: t_in}, t_h={0: -t_in})
        assert not ms.contains(t_h={0: 3 * t_in})
        assert ms.contains(t_h={1: -t_in})
        assert not ms.contains(t_h={1: 0j})

    def test_scaled_arc_log_consistency(self):
        # log(t^m) on the scaled arc equals m * log(t) on the base arc
        arc = Arc(0.05, math.pi / 8)
        t = 0.07 * cmath.exp(1j * 0.1)
        m = 2
        assert arc.scaled(m).log(t ** m) == pytest.approx(m * arc.log(t))
