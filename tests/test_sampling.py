import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatscale import sampling
from flatscale.charts import ChartModel, get_chart
from flatscale.homology import LinearSubspace, full_space, independence_rank, real_subspace
from flatscale.sampling import ConingEstimate, estimate_coned_measure, scan_chart
from flatscale.surface import (
    CheckedSides,
    SurfaceError,
    checked_sides,
    ear_clip,
    identity_rows,
    polygon_is_simple,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_vertices,
    symmetric_vertices_batch,
)
from flatscale.torus_oracle import cone_volume_quadrature, torus_exact_oracle
from flatscale.unfolding import UnfoldedBatch, UnfoldingBudgetError, unfold_surfaces

N_FAST = 60_000
SEED = 1234
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SUBSPACE_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


class TestEstimatorBasics:
    def test_matches_oracle_moderate_eps(self):
        est = estimate_coned_measure("torus", None, (0.3,), 150_000, SEED)
        oracle = torus_exact_oracle([0.3])
        assert abs(est.value - oracle) < 3 * est.standard_error
        assert est.accepted > 50

    def test_stderr_formula(self):
        est = estimate_coned_measure("torus", None, (0.3,), N_FAST, SEED)
        p = est.accepted / est.samples
        want = est.box_volume * math.sqrt(p * (1 - p) / est.samples)
        assert est.standard_error == pytest.approx(want)

    def test_tiny_eps_rejects_everything(self):
        # below the shortest connection over the sampled cone: measure ~ 0
        est = estimate_coned_measure("torus", None, (0.004,), N_FAST, SEED)
        assert est.accepted == 0

    def test_cone_volume_sanity(self):
        est = estimate_coned_measure("torus", None, None, 200_000, SEED)
        want = cone_volume_quadrature()
        assert abs(est.value - want) < 3 * est.standard_error

    def test_k2_torus_is_empty(self):
        est = estimate_coned_measure("torus", None, (0.2, 0.2), N_FAST, SEED)
        assert est.accepted == 0

    def test_monotone_in_eps_shared_samples(self):
        res = scan_chart("torus", None, [(0.15,), (0.3,), (0.45,)],
                         N_FAST, SEED)
        vals = [e.accepted for e in res.estimates]
        assert vals[0] <= vals[1] <= vals[2]

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            estimate_coned_measure("torus", None, (0.1,), 10, SEED)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = scan_chart("torus", None, [(0.3,)], N_FAST, SEED)
        b = scan_chart("torus", None, [(0.3,)], N_FAST, SEED)
        assert a.estimates[0].value == b.estimates[0].value

    def test_worker_count_invariance(self):
        a = scan_chart("torus", None, [(0.3,), None], N_FAST, SEED, threads=1)
        b = scan_chart("torus", None, [(0.3,), None], N_FAST, SEED, threads=4)
        for x, y in zip(a.estimates, b.estimates):
            assert x.value == y.value
            assert x.accepted == y.accepted

    def test_different_seeds_differ(self):
        a = estimate_coned_measure("torus", None, (0.3,), N_FAST, 1)
        b = estimate_coned_measure("torus", None, (0.3,), N_FAST, 2)
        assert a.accepted != b.accepted


class TestSubspaceSampling:
    def test_full_rank_subspace_on_octagon(self):
        rng = np.random.default_rng(4)
        basis = rng.normal(size=(4, 2))
        W = LinearSubspace(4, basis.astype(complex), "real")
        est = estimate_coned_measure("h2-octagon", W, (0.5,), 30_000, SEED)
        assert est.value >= 0
        assert est.box_volume == pytest.approx(256.0)


class TestOctagonSmoke:
    def test_octagon_scan_runs(self):
        res = scan_chart("h2-octagon", None, [(0.4,), (0.4, 0.4)], 40_000, SEED)
        one, two = res.estimates
        assert one.accepted >= two.accepted


class TestPrefixRanks:
    @pytest.mark.parametrize("subspace", [
        full_space(4),
        real_subspace(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])),
        real_subspace(np.random.default_rng(3).normal(size=(4, 3))),
    ])
    def test_capped_ranks_equal_svd_prefix_ranks(self, subspace, monkeypatch):
        rng = np.random.default_rng(5)
        rows_seen = []

        def counting_rank(classes, sub):
            rows_seen.append(len(classes))
            return independence_rank(classes, sub)

        monkeypatch.setattr(sampling, "independence_rank", counting_rank)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            classes = rng.integers(-2, 3, size=(n, 4))
            dup = rng.integers(0, n, size=n // 3)  # repeated classes
            classes[rng.integers(0, n, size=dup.size)] = classes[dup]
            classes = classes.astype(complex)
            full = [independence_rank(classes[:j], subspace) for j in range(1, n + 1)]
            for k_max in (1, 2, 3, 4):
                rows_seen.clear()
                got = sampling._prefix_ranks(classes, subspace, k_max)
                assert got == [min(r, k_max) for r in full]
                assert all(r <= min(k_max, subspace.dim) for r in rows_seen)

    def test_repeated_classes_ranked_once(self, monkeypatch):
        calls = []

        def counting_rank(classes, sub):
            calls.append(classes[-1].tolist())
            return independence_rank(classes, sub)

        monkeypatch.setattr(sampling, "independence_rank", counting_rank)
        a, b, c = [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]
        classes = np.asarray([a, a, c, c, b, b], dtype=complex)
        ranks = sampling._prefix_ranks(classes, full_space(4), 3)
        assert ranks == [1, 1, 2, 2, 2, 2]
        assert calls == [a, c, b]


# Per-cell accepted counts recorded before the combinatorics cache, the
# blocked mask and the capped prefix ranks went in: optimisations of the scan
# must leave every count bit-identical.
OCTAGON_EPS = (0.2, 0.35, 0.6, 1.0)
GOLDEN_CASES = {
    "torus": ("torus", None, 20_000,
              [None, (0.15,), (0.2,), (0.3,), (0.45,), (0.3, 0.45)]),
    "octagon": ("h2-octagon", None, 40_000,
                [None] + [(e,) for e in OCTAGON_EPS]
                + [(a, b) for i, a in enumerate(OCTAGON_EPS) for b in OCTAGON_EPS[i:]]),
    "octagon-subspace": (
        "h2-octagon",
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
        20_000, [(0.5,), (0.8,), (0.8, 1.0)]),
}
GOLDEN_COUNTS = {
    ("torus", 1): [4330, 5, 12, 97, 472, 0],
    ("torus", 2): [4247, 10, 25, 106, 477, 0],
    ("octagon", 1): [463, 155, 371, 463, 463, 13, 48, 128, 155, 109, 332, 371,
                     422, 463, 463],
    ("octagon", 2): [446, 159, 352, 446, 446, 14, 69, 135, 159, 112, 313, 352,
                     405, 446, 446],
    ("octagon-subspace", 1): [1142, 1573, 1088],
    ("octagon-subspace", 2): [1095, 1565, 1089],
}


# Admissible samples of the same scans, recorded while the batch mask still
# ran on the polygons before their unit-area rescale.
GOLDEN_ADMISSIBLE = {
    ("torus", 1): 10049,
    ("torus", 2): 10024,
    ("octagon", 1): 11492,
    ("octagon", 2): 11640,
    ("octagon-subspace", 1): 9951,
    ("octagon-subspace", 2): 9976,
}


class TestGoldenCounts:
    @pytest.mark.parametrize("case, seed", sorted(GOLDEN_COUNTS))
    def test_accepted_counts(self, case, seed):
        chart, rows, samples, cells = GOLDEN_CASES[case]
        W = None if rows is None else real_subspace(rows)
        res = scan_chart(chart, W, cells, samples, seed)
        assert [e.accepted for e in res.estimates] == GOLDEN_COUNTS[case, seed]
        assert {e.admissible for e in res.estimates} == {GOLDEN_ADMISSIBLE[case, seed]}
        assert res.build_failures == 0


class TestChartInput:
    def test_custom_chart_matches_builtin(self):
        builtin = get_chart("torus", 1.0)
        custom = ChartModel("my-torus", 2, builtin.param_box)
        cells = [None, (0.2,), (0.45,)]
        want = scan_chart(builtin, None, cells, 20_000, SEED, chunk_size=8192)
        for threads in (1, 2):
            got = scan_chart(custom, None, cells, 20_000, SEED, threads=threads,
                             chunk_size=8192)
            assert got.chart == "my-torus"
            assert got.estimates == want.estimates

    @pytest.mark.parametrize("box", [
        ((-1, 1, -0.5, 0.5),) * 2,
        ((-1, 1, -1, 1), (-2, 2, -2, 2)),
        ((0, 2, 0, 2),) * 2,
        ((0, 0, 0, 0),) * 2,
    ])
    def test_non_square_box_rejected(self, box):
        chart = ChartModel("torus", 2, box)
        with pytest.raises(ValueError, match="samples only boxes"):
            scan_chart(chart, None, [(0.3,)], N_FAST, SEED)

    def test_worker_error_propagates(self):
        with pytest.raises(UnfoldingBudgetError):
            scan_chart("torus", None, [(0.45,)], 2000, SEED, threads=2,
                       chunk_size=500, budget=1)


class FlakyTorus(ChartModel):
    """Torus chart whose build fails for every sample with Re z_1 > 0.

    Module level, so that worker processes can unpickle it.
    """

    def build(self, z):
        if z[0].real > 0:
            raise SurfaceError("refused by the test chart")
        return super().build(z)


class TestBuildFailures:
    def test_failures_counted_for_any_worker_count(self, monkeypatch):
        box = get_chart("torus").param_box
        cells = [None, (0.3,), (0.45,)]
        results = [scan_chart(FlakyTorus("flaky", 2, box), None, cells, 20_000,
                              SEED, threads=threads, chunk_size=8192)
                   for threads in (1, 2)]
        assert results[0] == results[1]

        # the same scan on the plain chart, noting which builds would fail
        refused = []
        build = ChartModel.build

        def noting_build(self, z):
            refused.append(z[0].real > 0)
            return build(self, z)

        monkeypatch.setattr(ChartModel, "build", noting_build)
        plain = scan_chart(ChartModel("flaky", 2, box), None, cells, 20_000,
                           SEED, chunk_size=8192)
        got = results[0]
        assert plain.build_failures == 0
        assert 0 < got.build_failures == sum(refused) < len(refused)
        # a failed build stays a cone sample but is accepted by no cell
        assert got.estimates[0] == plain.estimates[0]
        for a, b in zip(got.estimates[1:], plain.estimates[1:]):
            assert 0 < a.accepted < b.accepted


class TestLayerHooks:
    """The benchmark times layers by wrapping ``ChartModel.build`` and
    ``sampling.polygon_simple_mask``; the scan must call them as it does."""

    @pytest.mark.parametrize("chart, cells", [
        ("torus", [None, (0.3,)]),
        ("h2-octagon", [None, (0.6,), (0.6, 1.0)]),
    ])
    def test_one_build_per_cone_sample_one_mask_per_chunk(self, chart, cells,
                                                         monkeypatch):
        builds = []
        masks = []
        build = ChartModel.build
        mask = sampling.polygon_simple_mask

        def build_hook(self, *args, **kwargs):
            assert len(args) == 1 and not kwargs
            sides = list(args[0])
            assert len(sides) == self.dim
            assert all(type(w) is complex for w in sides)
            builds.append(sides)
            return build(self, *args)

        def mask_hook(verts, *args, **kwargs):
            masks.append(verts)
            return mask(verts, *args, **kwargs)

        monkeypatch.setattr(ChartModel, "build", build_hook)
        monkeypatch.setattr(sampling, "polygon_simple_mask", mask_hook)
        res = scan_chart(chart, None, cells, 20_000, SEED, chunk_size=8192)
        assert len(builds) == res.estimates[0].accepted > 0
        assert len(masks) == 3
        # the mask sees only the samples of positive area, at unit area
        for verts in masks:
            assert np.allclose(sampling._areas(verts), 1.0, rtol=1e-12, atol=0)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def _sample_rows(dim):
    """Batches of chart parameters, as scan_chart draws them from the box:
    lists of rows of ``dim`` complex numbers with parts in [-2, 2]."""
    part = st.floats(-2.0, 2.0, allow_nan=False)
    row = st.lists(st.builds(complex, part, part), min_size=dim, max_size=dim)
    return st.lists(row, min_size=1, max_size=24).map(
        lambda rows: np.asarray(rows, dtype=complex))


def _assert_checked_rows_build_as_checked(x, coeffs):
    """Every row the unit-area batch check accepts reaches the builder as
    CheckedSides whose vertices are the checked ones, bit for bit, and
    builds the surface the checking path builds."""
    area, unit, admissible = sampling._unit_area_check(x)
    verts = symmetric_vertices_batch(unit)
    rows = checked_sides(unit[admissible])
    assert len(rows) == int(admissible.sum())
    for sides, row in zip(rows, verts[admissible]):
        assert isinstance(sides, CheckedSides)
        assert all(type(w) is complex for w in sides)
        built_from = symmetric_vertices(sides)
        assert _bits(built_from) == _bits(row)
        # the per-sample check the builder skips would have passed
        assert polygon_is_simple(built_from) and shoelace_area(built_from) > 0

        X = surface_from_symmetric_polygon(sides, coeffs)
        Y = surface_from_symmetric_polygon(list(sides), coeffs)
        assert X._tables is Y._tables
        edges = [[X.edge(t, e) for e in range(3)] for t in range(X.n_triangles)]
        assert _bits(edges) == _bits([[Y.edge(t, e) for e in range(3)]
                                      for t in range(Y.n_triangles)])
        want = [[row[b] - row[a], row[c] - row[b], row[a] - row[c]]
                for a, b, c in ear_clip(list(row))]
        assert _bits(edges) == _bits(want)


def _unit_rows(dim):
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


class TestCheckedSides:
    @PROPERTY
    @given(_sample_rows(2))
    @example(np.array([[complex(-0.0, 1.0), complex(-1.0, -0.0)]]))  # signed zeros
    def test_tori(self, x):
        _assert_checked_rows_build_as_checked(x, _unit_rows(2))

    @PROPERTY
    @given(_sample_rows(4))
    def test_octagons(self, x):
        _assert_checked_rows_build_as_checked(x, _unit_rows(4))

    @PROPERTY
    @given(_sample_rows(2))
    def test_subspace_octagons(self, w):
        _assert_checked_rows_build_as_checked(w @ SUBSPACE_BASIS.T, _unit_rows(4))

    @pytest.mark.parametrize("name, seed", [("torus", 1), ("h2-octagon", 2)])
    def test_scan_samples(self, name, seed):
        chart = get_chart(name)
        rng = sampling._chunk_generator(seed, 0)
        x = sampling._sample_params(rng, 4096, chart.dim, 2.0)
        _assert_checked_rows_build_as_checked(x, _unit_rows(chart.dim))

    def test_tiny_areas(self):
        x = np.array([
            [1e-150, 1e-150j],          # tiny square: unit square after the rescale
            [1j, -2.2250738585e-311],   # sliver of subnormal area
            [1, 1e-320j],
            [1, 1e-300j],
            [1, 1e-400j],               # area 0
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            area, unit, admissible = sampling._unit_area_check(x)
        assert len(area) == 4
        assert admissible.tolist() == [True, False, False, False]
        assert [get_chart("torus").admissible(z) for z in x] == [True] + [False] * 4
        assert unit[0].tolist() == [1, 1j]

    def test_unit_area_check_matches_admissible(self):
        chart = get_chart("h2-octagon")
        rng = sampling._chunk_generator(3, 0)
        x = sampling._sample_params(rng, 2000, chart.dim, 2.0)
        area, unit, admissible = sampling._unit_area_check(x)
        positive = [chart.area(z) > 0 for z in x]
        assert positive.count(True) == len(area)
        want = [chart.admissible(z) for z, p in zip(x, positive) if p]
        assert admissible.tolist() == want
        unit_areas = [shoelace_area(symmetric_vertices(row))
                      for row in unit[admissible].tolist()]
        assert np.allclose(unit_areas, 1.0, rtol=1e-12)


class TestBatchedScan:
    """Each chunk's cone samples are unfolded in one batch."""

    @pytest.mark.parametrize("chart, cells", [
        ("torus", [None, (0.3,), (0.45,)]),
        ("h2-octagon", [None, (0.6,), (0.6, 1.0)]),
    ])
    def test_unfolding_nodes(self, chart, cells, monkeypatch):
        built, calls = [], []
        build, unfold = ChartModel.build, sampling.unfold_surfaces

        def noting_build(self, z):
            X = build(self, z)
            built.append(X)
            return X

        def noting_unfold(surfaces, *args, **kwargs):
            calls.append(len(surfaces))
            return unfold(surfaces, *args, **kwargs)

        monkeypatch.setattr(ChartModel, "build", noting_build)
        monkeypatch.setattr(sampling, "unfold_surfaces", noting_unfold)
        res = scan_chart(chart, None, cells, 20_000, SEED, chunk_size=8192)
        monkeypatch.undo()
        assert len(calls) == 3
        assert sum(calls) == len(built) == res.estimates[0].accepted
        two = scan_chart(chart, None, cells, 20_000, SEED, threads=2,
                         chunk_size=8192)
        assert two == res
        l_max = max(c[-1] for c in cells if c is not None)
        alone = sum(int(unfold_surfaces([X], l_max).nodes[0]) for X in built)
        assert res.unfolding_nodes == alone > 0

    def test_no_radius_cell_unfolds_nothing(self):
        res = scan_chart("torus", None, [None], 5000, SEED)
        assert res.unfolding_nodes == 0

    @PROPERTY
    @given(st.data())
    def test_thresholds_decide_cells_as_prefix_ranks(self, data):
        """R_i <= eps_(i+1) for all i < k is the searchsorted test: the
        connections no longer than eps_(i+1) reach rank i + 1."""
        grid = [0.25, 0.5, 0.75, 1.0, 1.25]
        sizes = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))
        offsets = np.cumsum([0] + sizes)
        values = st.sampled_from(grid + [0.3, 0.9])  # with ties
        lengths = np.concatenate([
            np.sort(np.asarray(data.draw(st.lists(values, min_size=m,
                                                  max_size=m)), dtype=float))
            for m in sizes])
        classes = np.asarray(data.draw(st.lists(
            st.lists(st.integers(-1, 1), min_size=4, max_size=4),
            min_size=sum(sizes), max_size=sum(sizes))), dtype=np.int64)
        classes = classes.reshape(sum(sizes), 4)
        batch = UnfoldedBatch(
            offsets=offsets, holonomy=lengths.astype(complex), length=lengths,
            start_zero=np.zeros(len(lengths), np.int64),
            end_zero=np.zeros(len(lengths), np.int64), classes=classes,
            dims=(4,) * len(sizes), chains=None,
            nodes=np.zeros(len(sizes), np.int64))
        W = full_space(4)
        R = sampling._rank_thresholds(batch, W, 3)
        cells = [(e,) for e in grid] + [
            tuple(sorted(c)) for c in data.draw(st.lists(
                st.lists(st.sampled_from(grid), min_size=2, max_size=3),
                min_size=1, max_size=6))]
        for s, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            ls = lengths[a:b]
            ranks = (sampling._prefix_ranks(classes[a:b].astype(complex), W, 3)
                     if b > a else [])
            for cell in cells:
                want = True
                for i, e in enumerate(cell):
                    j = int(np.searchsorted(ls, e, side="right"))
                    if j == 0 or ranks[j - 1] < i + 1:
                        want = False
                got = all(R[s, i] <= e for i, e in enumerate(cell))
                assert got == want


class TestIdentityRows:
    def test_chart_rows_are_built_once(self):
        assert identity_rows(4) is identity_rows(4)
        assert identity_rows(2) == ((1, 0), (0, 1))

    @pytest.mark.parametrize("name", ["torus", "h2-octagon"])
    def test_chart_build_shares_tables_with_converted_rows(self, name):
        chart = get_chart(name)
        rng = sampling._chunk_generator(5, 0)
        x = sampling._sample_params(rng, 256, chart.dim, 2.0)
        area, unit, admissible = sampling._unit_area_check(x)
        for sides in checked_sides(unit[admissible])[:40]:
            X = chart.build(sides)
            Y = surface_from_symmetric_polygon(list(sides), _unit_rows(chart.dim))
            assert X._tables is Y._tables
            assert X._coeffs == Y._coeffs
