import math
import warnings

import numpy as np
import pytest

from flatscale.charts import BUILTIN_CHARTS, ChartModel, get_chart
from flatscale.surface import (
    StratumSignature,
    SurfaceError,
    polygon_simple_mask,
    shoelace_area,
    symmetric_vertices,
)
from flatscale.unfolding import enumerate_saddle_connections


class TestTorusChart:
    chart = get_chart("torus")

    def test_unit_square(self):
        X = self.chart.build([1, 1j])
        assert X.validate(StratumSignature((0,))).ok
        assert abs(X.area() - 1) < 1e-15

    def test_area_two(self):
        z = [1, 0.5 + 2j]
        assert self.chart.admissible(z)
        assert abs(self.chart.area(z) - 2.0) < 1e-12
        assert abs(self.chart.build(z).area() - 2.0) < 1e-12

    def test_degenerate_inadmissible(self):
        assert not self.chart.admissible([1, 1])
        with pytest.raises(SurfaceError):
            self.chart.build([1, 1])

    def test_periods_equal_parameters(self):
        z = [1.3 - 0.2j, 0.1 + 0.9j]
        X = self.chart.build(z)
        for sc in enumerate_saddle_connections(X, 2.0):
            p, q = sc.class_vector
            assert abs(sc.holonomy - (p * z[0] + q * z[1])) < 1e-12

    def test_box_volume(self):
        assert self.chart.box_volume == pytest.approx(256.0)


class TestOctagonChart:
    chart = get_chart("h2-octagon")

    def test_reference_octagon(self):
        z = [1, 1 + 1j, 1j, -1 + 1j]
        assert self.chart.admissible(z)
        X = self.chart.build(z)
        assert X.validate(StratumSignature((2,))).ok

    def test_regular_octagon_area(self):
        pts = [complex(math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8))
               for k in range(8)]
        z = [pts[k + 1] - pts[k] for k in range(4)]
        assert self.chart.admissible(z)
        assert abs(self.chart.area(z) - 2 * math.sqrt(2)) < 1e-12

    def test_antiparallel_sides_inadmissible(self):
        assert not self.chart.admissible([1, -1, 1, -1])

    def test_periods_equal_parameters(self):
        z = [1, 1 + 1j, 1j, -1 + 1j]
        X = self.chart.build(z)
        for sc in enumerate_saddle_connections(X, 2.5):
            hol = sum(c * w for c, w in zip(sc.class_vector, z))
            assert abs(sc.holonomy - hol) < 1e-12

    def test_dim(self):
        sig = StratumSignature((2,))
        assert self.chart.dim == sig.dimension == 4


class TestChartTable:
    """The built-in charts are a table of names and dims."""

    def test_get_chart(self):
        assert BUILTIN_CHARTS == {"torus": 2, "h2-octagon": 4}
        assert get_chart("torus", 1.0) == ChartModel("torus", 2, 1.0)
        assert get_chart("h2-octagon") == ChartModel("h2-octagon", 4, 2.0)
        assert get_chart("torus", 1.0).box_volume == pytest.approx(16.0)
        with pytest.raises(KeyError, match="unknown chart 'decagon'"):
            get_chart("decagon")

    @pytest.mark.parametrize("name, z", [
        ("torus", [1e200, 1e200j]),
        ("torus", [1e200j, 1e200]),
        ("torus", [1e200, 3e199j]),
        ("h2-octagon", [1e200, 1e200j, -1e200 + 1e200j, -1e200]),
        ("h2-octagon", [1e200, 1e200 + 1e200j, 1e200j, -1e200 + 1e200j]),
    ])
    def test_admissible_on_overflowing_rows(self, name, z):
        """``admissible`` is a predicate that inf and nan decide, so it
        reports no overflow; ``area``, whose value overflowed, does."""
        chart = get_chart(name)
        with np.errstate(over="ignore", invalid="ignore"):
            verts = symmetric_vertices(z)
            want = bool(shoelace_area(verts) > 0
                        and polygon_simple_mask(verts)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chart.admissible(z) == want
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chart.area(z)
        assert any("overflow" in str(w.message) for w in caught)

    @pytest.mark.parametrize("method", ["polygon_vertices", "admissible",
                                        "area", "build", "build_batch"])
    @pytest.mark.parametrize("chart, z", [
        (get_chart("torus"), [1, 0.5 + 1j, -0.5 + 1j]),
        (get_chart("torus"), [1]),
        (get_chart("h2-octagon"), [1, 1 + 1j, 1j]),
        (get_chart("h2-octagon"), [1, 1 + 1j, 1j, -1 + 1j, -1]),
        (ChartModel("hexagon", 3, 1.0), [1, 1j]),
    ], ids=["torus-3", "torus-1", "octagon-3", "octagon-5", "custom-2"])
    def test_wrong_number_of_sides_named(self, method, chart, z):
        # three sides on the torus built a 4-triangle surface with no
        # vertex of positive order, and build_batch marked the row built
        arg = np.asarray([z], dtype=complex) if method == "build_batch" else z
        with pytest.raises(ValueError, match=f"dim {chart.dim}"):
            getattr(chart, method)(arg)

    @pytest.mark.parametrize("method, arg, want", [
        ("build_batch", np.array([1, 1j]), r"sides must have shape \(batch, 2\)"),
        ("build_batch", np.array(1 + 1j), r"sides must have shape \(batch, 2\)"),
        ("build_batch", np.ones((1, 1, 2)), r"sides must have shape \(batch, 2\)"),
        ("admissible", np.array([[1, 1j], [1, 1j]]), r"z must have shape \(2,\)"),
        ("admissible", np.array([[1, 1j]]), r"z must have shape \(2,\)"),
        ("area", np.array([[1, 1j], [1, 1j]]), r"z must have shape \(2,\)"),
        ("build", np.array([[1, 1j]]), r"z must have shape \(2,\)"),
        ("polygon_vertices", 1j, r"z must have shape \(2,\)"),
    ])
    def test_wrong_rank_named(self, method, arg, want):
        # one row to build_batch raised IndexError in the polygon builder,
        # and a stack to admissible numpy's "truth value ... is ambiguous"
        with pytest.raises(ValueError, match=want):
            getattr(get_chart("torus"), method)(arg)
