import math

import numpy as np
import pytest

from flatscale import sampling
from flatscale.charts import ChartModel, get_chart
from flatscale.homology import LinearSubspace, full_space, independence_rank, real_subspace
from flatscale.sampling import ConingEstimate, estimate_coned_measure, scan_chart
from flatscale.torus_oracle import cone_volume_quadrature, torus_exact_oracle
from flatscale.unfolding import UnfoldingBudgetError

N_FAST = 60_000
SEED = 1234


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


class TestGoldenCounts:
    @pytest.mark.parametrize("case, seed", sorted(GOLDEN_COUNTS))
    def test_accepted_counts(self, case, seed):
        chart, rows, samples, cells = GOLDEN_CASES[case]
        W = None if rows is None else real_subspace(rows)
        res = scan_chart(chart, W, cells, samples, seed)
        assert [e.accepted for e in res.estimates] == GOLDEN_COUNTS[case, seed]


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
