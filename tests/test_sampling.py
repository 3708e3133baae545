import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatscale import sampling
from flatscale.charts import ChartModel, get_chart
from flatscale.homology import LinearSubspace, independence_rank, real_subspace
from flatscale.sampling import scan_chart
from flatscale.surface import (
    SurfaceError,
    polygon_simple_mask,
    reduce_lattice_bases,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_polygon_batch,
    symmetric_vertices,
)
from flatscale.torus_oracle import cone_volume_quadrature, torus_exact_oracle
from flatscale.unfolding import UnfoldedBatch, UnfoldingBudgetError, unfold_surfaces

from scalar_ear_clip import scalar_ear_clip
from scalar_prefix_ranks import prefix_ranks, reference_thresholds

N_FAST = 60_000
SEED = 1234
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SUBSPACE_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


class TestEstimatorBasics:
    def test_matches_oracle_moderate_eps(self):
        est = scan_chart("torus", None, [(0.3,)], 150_000, SEED).estimates[0]
        oracle = torus_exact_oracle([0.3])
        assert abs(est.value - oracle) < 3 * est.standard_error
        assert est.accepted > 50

    def test_stderr_formula(self):
        est = scan_chart("torus", None, [(0.3,)], N_FAST, SEED).estimates[0]
        p = est.accepted / est.samples
        want = est.box_volume * math.sqrt(p * (1 - p) / est.samples)
        assert est.standard_error == pytest.approx(want)

    def test_tiny_eps_rejects_everything(self):
        # below the shortest connection over the sampled cone: measure ~ 0
        est = scan_chart("torus", None, [(0.004,)], N_FAST, SEED).estimates[0]
        assert est.accepted == 0

    def test_cone_volume_sanity(self):
        est = scan_chart("torus", None, [None], 200_000, SEED).estimates[0]
        want = cone_volume_quadrature()
        assert abs(est.value - want) < 3 * est.standard_error

    def test_k2_torus_is_empty(self):
        est = scan_chart("torus", None, [(0.2, 0.2)], N_FAST, SEED).estimates[0]
        assert est.accepted == 0

    def test_monotone_in_eps_shared_samples(self):
        res = scan_chart("torus", None, [(0.15,), (0.3,), (0.45,)],
                         N_FAST, SEED)
        vals = [e.accepted for e in res.estimates]
        assert vals[0] <= vals[1] <= vals[2]

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            scan_chart("torus", None, [(0.1,)], 10, SEED)


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
        a = scan_chart("torus", None, [(0.3,)], N_FAST, 1).estimates[0]
        b = scan_chart("torus", None, [(0.3,)], N_FAST, 2).estimates[0]
        assert a.accepted != b.accepted


class TestSubspaceSampling:
    def test_full_rank_subspace_on_octagon(self):
        rng = np.random.default_rng(4)
        basis = rng.normal(size=(4, 2))
        W = LinearSubspace(4, basis.astype(complex))
        est = scan_chart("h2-octagon", W, [(0.5,)], 30_000, SEED).estimates[0]
        assert est.value >= 0
        assert est.box_volume == pytest.approx(256.0)


class TestOctagonSmoke:
    def test_octagon_scan_runs(self):
        res = scan_chart("h2-octagon", None, [(0.4,), (0.4, 0.4)], 40_000, SEED)
        one, two = res.estimates
        assert one.accepted >= two.accepted


class TestTeichmullerCurve:
    """On the GL2(R) orbit of the regular octagon, the complex span W of the
    real and imaginary parts of its sides z_k = exp(i k pi / 4), every
    unit-area surface has |s_1 x s_2| >= sin^2(pi/8) for non-parallel
    connections s_1, s_2 (the least value on the regular octagon, which
    SL2(R) keeps).  So a cell (eps_1, eps_2) below that product accepts
    nothing, and cells a little above it accept."""

    EMPTY = [(0.3, 0.3), (0.2, 0.7)]
    HIT = [(0.4, 0.4), (0.25, 0.62), (0.3, 0.52), (0.2, 0.76)]

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_threshold_is_sin_squared(self, seed):
        least = math.sin(math.pi / 8) ** 2
        assert all(a * b <= 0.97 * least for a, b in self.EMPTY)
        assert all(a * b >= 1.03 * least for a, b in self.HIT)
        z = np.exp(1j * np.arange(4) * math.pi / 4)
        W = real_subspace(np.column_stack([z.real, z.imag]))
        res = scan_chart("h2-octagon", W, self.EMPTY + self.HIT, 100_000, seed)
        counts = [e.accepted for e in res.estimates]
        assert counts[:len(self.EMPTY)] == [0] * len(self.EMPTY)
        assert all(c > 0 for c in counts[len(self.EMPTY):])


def _class_batch(surfaces) -> UnfoldedBatch:
    """An UnfoldedBatch whose surface s has the connections of classes
    ``surfaces[s]`` (rows of 4 ints), of lengths 1, 2, 3, ..."""
    sizes = [len(c) for c in surfaces]
    classes = np.concatenate([np.asarray(c, dtype=np.int64).reshape(-1, 4)
                              for c in surfaces])
    length = np.concatenate([np.arange(1.0, m + 1) for m in sizes])
    return UnfoldedBatch(
        offsets=np.cumsum([0] + sizes), holonomy=length.astype(complex),
        length=length, start_zero=np.zeros(len(length), np.int64),
        end_zero=np.zeros(len(length), np.int64), classes=classes,
        dims=(4,) * len(sizes), chains=None,
        nodes=np.zeros(len(sizes), np.int64))


class TestPrefixRanks:
    @pytest.mark.parametrize("subspace", [
        LinearSubspace(4),
        real_subspace(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])),
        real_subspace(np.random.default_rng(3).normal(size=(4, 3))),
    ])
    def test_capped_ranks_equal_svd_prefix_ranks(self, subspace, monkeypatch):
        """The stacked rounds give the thresholds of the greedy reference,
        whose ranks are the capped SVD ranks of every prefix."""
        rng = np.random.default_rng(5)
        surfaces = []
        for _ in range(200):
            n = int(rng.integers(1, 12))
            classes = rng.integers(-2, 3, size=(n, 4))
            dup = rng.integers(0, n, size=n // 3)  # repeated classes
            classes[rng.integers(0, n, size=dup.size)] = classes[dup]
            surfaces.append(classes)
            classes = classes.astype(complex)
            full = [independence_rank(classes[:j], subspace) for j in range(1, n + 1)]
            for k_max in (1, 2, 3, 4):
                got = prefix_ranks(classes, subspace, k_max)
                assert got == [min(r, k_max) for r in full]
        surfaces.insert(7, np.zeros((0, 4), np.int64))  # no connections
        batch = _class_batch(surfaces)

        heights = []

        def counting_rank(classes, sub):
            heights.append(np.shape(classes)[-2])
            return independence_rank(classes, sub)

        monkeypatch.setattr(sampling, "independence_rank", counting_rank)
        for k_max in (1, 2, 3, 4):
            heights.clear()
            got = sampling._rank_thresholds(batch, subspace, k_max)
            want = reference_thresholds(batch, subspace, k_max)
            assert np.array_equal(got, want)
            assert 0 < max(heights) <= min(k_max, subspace.dim)

    def test_repeated_classes_ranked_once(self, monkeypatch):
        """Each distinct class of a surface goes to the SVD once, as the
        last row of a stacked matrix; the rounds rank all surfaces."""
        calls = []

        def counting_rank(classes, sub):
            calls.append(np.asarray(classes)[:, -1].real.astype(int).tolist())
            return independence_rank(classes, sub)

        monkeypatch.setattr(sampling, "independence_rank", counting_rank)
        a, b, c = [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]
        batch = _class_batch([[a, a, c, c, b, b], [b, b, a]])
        R = sampling._rank_thresholds(batch, LinearSubspace(4), 3)
        assert R.tolist() == [[1, 3, math.inf], [1, 3, math.inf]]
        # round 1: a and b alone; round 2: [a, c] and [b, a]; round 3: [a, c, b]
        assert calls == [[a, b], [c, a], [b]]


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
        custom = ChartModel("my-torus", 2, builtin.half_width)
        cells = [None, (0.2,), (0.45,)]
        want = scan_chart(builtin, None, cells, 20_000, SEED, chunk_size=8192)
        for threads in (1, 2):
            got = scan_chart(custom, None, cells, 20_000, SEED, threads=threads,
                             chunk_size=8192)
            assert got.chart == "my-torus"
            assert got.estimates == want.estimates

    # A chart's box is the square (-h, h) x (-h, h) in every coordinate, so
    # the only bad box left is one whose h is not finite and positive.
    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf],
                             ids=["box0", "box1", "box2", "box3"])
    def test_non_square_box_rejected(self, half_width):
        with pytest.raises(ValueError, match="half_width must be finite"):
            ChartModel("torus", 2, half_width)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.3])
    def test_bad_radius_rejected(self, radius):
        # a nan radius made l_max nan, so every radius cell counted 0
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            scan_chart("torus", None, [None, (radius,), (0.3,)], 2000, 1)
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            scan_chart("torus", None, [(0.2, radius)], 2000, 1)

    def test_zero_dim_array_radius_is_one_radius(self):
        # a 0-d array has __len__ but no length: it raised a bare TypeError
        cells = [np.array(0.2), np.float64(0.3), (np.array(0.2), 0.3)]
        got = scan_chart("torus", None, cells, 2000, 1).estimates
        assert [e.eps for e in got] == [(0.2,), (0.3,), (0.2, 0.3)]
        assert got == scan_chart("torus", None, [0.2, 0.3, (0.2, 0.3)], 2000, 1).estimates

    @pytest.mark.parametrize("subspace", [
        LinearSubspace(4), real_subspace(np.eye(4)[:, :2]), LinearSubspace(1)])
    def test_subspace_of_wrong_dimension_rejected(self, subspace):
        # a full space of the wrong dimension once ran and reported the box
        # volume of its own dimension
        with pytest.raises(ValueError, match="ambient dimension"):
            scan_chart("torus", subspace, [0.3], 2000, 1)

    @pytest.mark.parametrize("chunk_size", [-5, 0])
    def test_bad_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be at least 1"):
            scan_chart("torus", None, [None, (0.3,)], 2000, 1,
                       chunk_size=chunk_size)

    def test_empty_radius_cell_rejected(self):
        # an empty cell once raised a bare IndexError from the largest radius
        with pytest.raises(ValueError, match=r"radius cell \(\) is empty"):
            scan_chart("torus", None, [(0.3,), ()], 1000, 1)
        with pytest.raises(ValueError, match=r"radius cell \[\] is empty"):
            scan_chart("h2-octagon", None, [[]], 1000, 1)

    @pytest.mark.parametrize("budget", [-5, 0])
    def test_bad_budget_rejected(self, budget, monkeypatch):
        # a budget below 1 once sampled and built a whole chunk first
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        with pytest.raises(ValueError, match="budget must be at least 1"):
            scan_chart("torus", None, [(0.3,)], 1000, 1, budget=budget)

    @pytest.mark.parametrize("dim", [1, 0, -2])
    def test_chart_of_fewer_than_two_sides_rejected(self, dim):
        # ChartModel("x", 1, 2.0) once scanned until the ear clip raised
        with pytest.raises(ValueError, match="at least 2 side parameters"):
            ChartModel("x", dim, 2.0)

    def test_worker_error_propagates(self):
        with pytest.raises(UnfoldingBudgetError):
            scan_chart("torus", None, [(0.45,)], 2000, SEED, threads=2,
                       chunk_size=500, budget=1)


class FlakyTorus(ChartModel):
    """Torus chart that refuses every sample with Re z_1 > 0: its batch
    builder rejects those rows, and its build raises for them.

    Module level, so that worker processes can unpickle it.
    """

    def build_batch(self, sides):
        keep = sides[:, 0].real <= 0
        batch, ok = super().build_batch(sides[keep])
        built = np.zeros(len(sides), dtype=bool)
        built[keep] = ok
        return batch, built

    def build(self, z):
        assert len(z) == self.dim and all(type(w) is complex for w in z)
        if z[0].real > 0:
            raise SurfaceError("refused by the test chart")
        return super().build(z)


class LenientBuild(ChartModel):
    """Torus chart whose batch builder rejects every row that its build
    accepts."""

    def build_batch(self, sides):
        batch, ok = super().build_batch(sides[:0])
        return batch, np.zeros(len(sides), dtype=bool)


class TestBuildFailures:
    def test_failures_counted_for_any_worker_count(self, monkeypatch):
        half_width = get_chart("torus").half_width
        cells = [None, (0.3,), (0.45,)]
        results = [scan_chart(FlakyTorus("flaky", 2, half_width), None, cells,
                              20_000, SEED, threads=threads, chunk_size=8192)
                   for threads in (1, 2)]
        assert results[0] == results[1]

        # the same scan on the plain chart, noting which builds would fail
        refused = []
        build_batch = ChartModel.build_batch

        def noting_build_batch(self, sides):
            refused.extend((sides[:, 0].real > 0).tolist())
            return build_batch(self, sides)

        monkeypatch.setattr(ChartModel, "build_batch", noting_build_batch)
        plain = scan_chart(ChartModel("flaky", 2, half_width), None, cells,
                           20_000, SEED, chunk_size=8192)
        got = results[0]
        assert plain.build_failures == 0
        assert 0 < got.build_failures == sum(refused) < len(refused)
        # a failed build stays a cone sample but is accepted by no cell
        assert got.estimates[0] == plain.estimates[0]
        for a, b in zip(got.estimates[1:], plain.estimates[1:]):
            assert 0 < a.accepted < b.accepted

    def test_rejected_row_that_builds_alone_is_an_error(self):
        chart = LenientBuild("lenient", 2, get_chart("torus").half_width)
        with pytest.raises(RuntimeError, match="build_batch rejected"):
            scan_chart(chart, None, [(0.3,)], 2000, SEED)


class TestLayerHooks:
    """The benchmark times layers by wrapping ``ChartModel.build`` and
    ``sampling.polygon_simple_mask``, and counts build failures on
    ``ChartModel.build``; the scan must call them as it does."""

    @pytest.mark.parametrize("chart, cells", [
        ("torus", [None, (0.3,)]),
        ("h2-octagon", [None, (0.6,), (0.6, 1.0)]),
    ])
    def test_one_build_per_cone_sample_one_mask_per_chunk(self, chart, cells,
                                                         monkeypatch):
        batches = []
        builds = []
        masks = []
        build, build_batch = ChartModel.build, ChartModel.build_batch
        mask = sampling.polygon_simple_mask

        def batch_hook(self, sides):
            batches.append(len(sides))
            return build_batch(self, sides)

        def build_hook(self, *args, **kwargs):
            builds.append(args)
            return build(self, *args, **kwargs)

        def mask_hook(verts, *args, **kwargs):
            masks.append(verts)
            return mask(verts, *args, **kwargs)

        monkeypatch.setattr(ChartModel, "build_batch", batch_hook)
        monkeypatch.setattr(ChartModel, "build", build_hook)
        monkeypatch.setattr(sampling, "polygon_simple_mask", mask_hook)
        res = scan_chart(chart, None, cells, 20_000, SEED, chunk_size=8192)
        # every cone sample is built once, in its chunk's batch; only a row
        # that the batch rejects is built alone (none here)
        assert len(batches) == 3
        assert sum(batches) == res.estimates[0].accepted > 0
        assert builds == [] and res.build_failures == 0
        assert len(masks) == 3
        # the mask sees only the samples of positive area, at unit area
        for verts in masks:
            assert np.allclose(shoelace_area(verts), 1.0, rtol=1e-12, atol=0)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def _sample_rows(dim):
    """Batches of chart parameters, as scan_chart draws them from the box:
    lists of rows of ``dim`` complex numbers with parts in [-2, 2]."""
    part = st.floats(-2.0, 2.0, allow_nan=False)
    row = st.lists(st.builds(complex, part, part), min_size=dim, max_size=dim)
    return st.lists(row, min_size=1, max_size=24).map(
        lambda rows: np.asarray(rows, dtype=complex))


def _assert_checked_rows_build_as_checked(x):
    """Every row the unit-area batch check accepts is built, in one batch,
    from the very vertices checked, bit for bit, into the surface that a
    checked build of that row alone gives."""
    area, unit, admissible = sampling._unit_area_check(x)
    verts = symmetric_vertices(unit)[admissible]
    batch, built = symmetric_polygon_batch(unit[admissible])
    assert len(built) == len(verts) and len(batch) == int(built.sum())
    edges = batch.edges.reshape(len(batch), x.shape[1] * 2 - 2, 3)
    kinds = iter(zip(edges, batch.kind.tolist()))
    for sides, row, ok in zip(unit[admissible].tolist(), verts.tolist(), built):
        # the per-sample check the batch skips would have passed
        assert polygon_simple_mask(row)[0] and shoelace_area(row) > 0
        assert _bits(symmetric_vertices(sides)) == _bits(row)
        try:
            tris = scalar_ear_clip(row)
        except SurfaceError:
            assert not ok
            continue
        assert ok
        got, kind = next(kinds)
        want = [[row[b] - row[a], row[c] - row[b], row[a] - row[c]]
                for a, b, c in tris]
        assert _bits(got) == _bits(want)

        X = surface_from_symmetric_polygon(sides)
        assert X._tables is batch.tables[kind]
        assert _bits([[X.edge(t, e) for e in range(3)]
                      for t in range(X.n_triangles)]) == _bits(want)
    assert next(kinds, None) is None


class TestCheckedSides:
    """Rows that pass the unit-area check build in one batch, checked by
    nothing more, and give the surfaces of checked builds."""

    @PROPERTY
    @given(_sample_rows(2))
    @example(np.array([[complex(-0.0, 1.0), complex(-1.0, -0.0)]]))  # signed zeros
    def test_tori(self, x):
        _assert_checked_rows_build_as_checked(x)

    @PROPERTY
    @given(_sample_rows(4))
    def test_octagons(self, x):
        _assert_checked_rows_build_as_checked(x)

    @PROPERTY
    @given(_sample_rows(2))
    def test_subspace_octagons(self, w):
        _assert_checked_rows_build_as_checked(w @ SUBSPACE_BASIS.T)

    @pytest.mark.parametrize("name, seed", [("torus", 1), ("h2-octagon", 2)])
    def test_scan_samples(self, name, seed):
        chart = get_chart(name)
        rng = sampling._chunk_generator(seed, 0)
        x = sampling._sample_params(rng, 4096, chart.dim, 2.0)
        _assert_checked_rows_build_as_checked(x)

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
        rows, calls = [], []
        build_batch, unfold = ChartModel.build_batch, sampling.unfold_surfaces

        def noting_build_batch(self, sides):
            rows.extend(sides.tolist())
            return build_batch(self, sides)

        def noting_unfold(surfaces, *args, **kwargs):
            calls.append(len(surfaces))
            return unfold(surfaces, *args, **kwargs)

        monkeypatch.setattr(ChartModel, "build_batch", noting_build_batch)
        monkeypatch.setattr(sampling, "unfold_surfaces", noting_unfold)
        res = scan_chart(chart, None, cells, 20_000, SEED, chunk_size=8192)
        monkeypatch.undo()
        assert len(calls) == 3
        assert sum(calls) == len(rows) == res.estimates[0].accepted
        two = scan_chart(chart, None, cells, 20_000, SEED, threads=2,
                         chunk_size=8192)
        assert two == res
        l_max = max(c[-1] for c in cells if c is not None)
        model = get_chart(chart)
        alone = sum(int(unfold_surfaces([model.build(z)], l_max).nodes[0])
                    for z in rows)
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
        W = LinearSubspace(4)
        R = sampling._rank_thresholds(batch, W, 3)
        cells = [(e,) for e in grid] + [
            tuple(sorted(c)) for c in data.draw(st.lists(
                st.lists(st.sampled_from(grid), min_size=2, max_size=3),
                min_size=1, max_size=6))]
        for s, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
            ls = lengths[a:b]
            ranks = (prefix_ranks(classes[a:b].astype(complex), W, 3)
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
    """A chart's coordinates are its polygon's sides: the chart builders and
    the polygon builders give one surface, on one shared set of tables."""

    @pytest.mark.parametrize("name", ["torus", "h2-octagon"])
    def test_chart_build_shares_tables_with_converted_rows(self, name):
        chart = get_chart(name)
        rng = sampling._chunk_generator(5, 0)
        x = sampling._sample_params(rng, 256, chart.dim, 2.0)
        area, unit, admissible = sampling._unit_area_check(x)
        batch, built = chart.build_batch(unit[admissible][:40])
        assert built.all()
        for sides, kind in zip(unit[admissible][:40].tolist(), batch.kind):
            X = chart.build(sides)
            Y = surface_from_symmetric_polygon(sides)
            assert X._tables is Y._tables is batch.tables[kind]


def _cone_sides(seed, chunk, size):
    """The unit-area sides of the cone samples of one torus scan chunk."""
    x = sampling._sample_params(sampling._chunk_generator(seed, chunk), size,
                                2, get_chart("torus").half_width)
    area, unit, admissible = sampling._unit_area_check(x)
    return unit[admissible & (area <= 1.0)]


def _canonical_rows(classes, length):
    """The classes of one surface up to sign (first nonzero entry > 0),
    sorted, with their lengths in the same order."""
    first = np.take_along_axis(classes, np.argmax(classes != 0, axis=1)[:, None], 1)
    classes = classes * np.where(first < 0, -1, 1)
    order = np.lexsort(classes.T[::-1])
    return classes[order], length[order]


class TestReducedTori:
    """The scan builds and unfolds each torus on its reduced basis B (u, v):
    the same torus, so the same connections, whose classes ``@ B`` are the
    chart classes of the raw build."""

    def test_each_surface_has_the_raw_connections(self):
        chart = get_chart("torus")
        raw = _cone_sides(41, 0, 10_000)
        reduced, basis = reduce_lattice_bases(raw)
        L = 0.45
        got, want = [], []
        for sides, out in ((raw, want), (reduced, got)):
            surfaces, built = chart.build_batch(sides)
            assert built.all()
            out.append(unfold_surfaces(surfaces, L))
        want, got = want[0], got[0]
        assert len(raw) == 2098
        assert np.array_equal(got.offsets, want.offsets)
        surf = np.repeat(np.arange(len(raw)), np.diff(got.offsets))
        mapped = sampling._chart_classes(got.classes, basis[surf])
        assert mapped.dtype == np.int64
        for a, b in zip(want.offsets[:-1].tolist(), want.offsets[1:].tolist()):
            want_c, want_l = _canonical_rows(want.classes[a:b], want.length[a:b])
            got_c, got_l = _canonical_rows(mapped[a:b], got.length[a:b])
            assert np.array_equal(got_c, want_c)
            assert np.allclose(got_l, want_l, rtol=1e-12, atol=0)
        # the long thin tori are what the reduction removes
        assert want.nodes.sum() > 5 * got.nodes.sum()
        assert want.nodes.max() > 5 * got.nodes.max()

    @pytest.mark.parametrize("rows", [None, np.array([[1.0, 0.0], [0.5, 1.0]])],
                             ids=["full", "sheared"])
    def test_scan_equals_raw_scan(self, rows, monkeypatch):
        """The whole scan on reduced tori counts what it counts on the raw
        bases, in every subspace, for any worker count."""
        W = None if rows is None else real_subspace(rows)
        cells = [None, (0.15,), (0.3,), (0.45,), (0.3, 0.45), (0.45, 0.45)]
        got = scan_chart("torus", W, cells, 20_000, 3, chunk_size=8192)
        two = scan_chart("torus", W, cells, 20_000, 3, threads=2,
                         chunk_size=8192)
        assert two == got

        def unreduced(sides):
            basis = np.zeros((len(sides), 2, 2), np.int64)
            basis[:, 0, 0] = basis[:, 1, 1] = 1
            return sides, basis

        monkeypatch.setattr(sampling, "reduce_lattice_bases", unreduced)
        want = scan_chart("torus", W, cells, 20_000, 3, chunk_size=8192)
        assert got.estimates == want.estimates
        assert any(e.accepted for e in got.estimates[1:])
        assert 0 < 5 * got.unfolding_nodes < want.unfolding_nodes

    @pytest.mark.parametrize("rows", [[[1.0], [1.0]], [[1.0], [-2.0]]])
    def test_chunks_without_connections(self, rows):
        # a real line of C^2 holds only degenerate tori, so no chunk has a
        # cone sample, a surface or a connection to map
        with pytest.warns(RuntimeWarning, match="admissibility rejection"):
            res = scan_chart("torus", real_subspace(np.array(rows)),
                             [None, (0.3,), (0.3, 0.45)], 2000, 1,
                             chunk_size=500)
        assert [e.accepted for e in res.estimates] == [0, 0, 0]
        assert res.unfolding_nodes == 0

    def test_class_map_stays_in_int64(self):
        classes = np.array([[2**40, -1], [3, 2**40]], dtype=np.int64)
        basis = np.array([[[2**22 - 1, 1], [-1, 0]]] * 2, dtype=np.int64)
        got = sampling._chart_classes(classes, basis)
        want = [[sum(c * int(b[i][j]) for i, c in enumerate(row))
                 for j in range(2)]
                for row, b in zip(classes.tolist(), basis.tolist())]
        assert got.tolist() == want
        # 2 max|class| max|B| = 2**63 could leave int64
        basis[0, 0, 0] = 2**22
        with pytest.raises(ValueError, match="beyond int64"):
            sampling._chart_classes(classes, basis)
