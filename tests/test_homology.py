import numpy as np
import pytest

from flatscale.homology import (
    DimensionMismatch,
    LinearSubspace,
    are_parallel,
    independence_rank,
    real_subspace,
)


class TestAreParallel:
    def test_real_multiples(self):
        assert are_parallel(1 + 0j, 2 + 0j)

    def test_orthogonal(self):
        assert not are_parallel(1 + 0j, 1j)

    def test_tolerance_boundary(self):
        s1, s2 = 1 + 1j, 2 + 2.000000000001j
        assert are_parallel(s1, s2, tol=1e-9)
        assert not are_parallel(s1, s2, tol=1e-15)


class TestIndependenceRank:
    def test_full_space_two_units(self):
        W = LinearSubspace(4)
        classes = np.zeros((2, 4))
        classes[0, 0] = 1
        classes[1, 1] = 1
        assert independence_rank(classes, W) == 2

    def test_repeated_class(self):
        W = LinearSubspace(3)
        classes = np.tile([1.0, 2.0, 0.0], (5, 1))
        assert independence_rank(classes, W) == 1

    def test_torus_parallel_pair_rank_one(self):
        # classes (p, q) and (2p, 2q) restricted to a real subspace
        p, q = 3, 5
        classes = np.array([[p, q], [2 * p, 2 * q]], dtype=float)
        for W in (LinearSubspace(2), real_subspace(np.array([[1.0], [0.5]]))):
            assert independence_rank(classes, W) == 1

    def test_annihilated_class(self):
        W = LinearSubspace(2, np.array([[1.0], [0.0]], dtype=complex))
        classes = np.array([[0.0, 1.0]])
        assert independence_rank(classes, W) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            independence_rank(np.eye(3), LinearSubspace(2))


class TestNonParallelImpliesIndependent:
    def test_on_subspace_samples(self):
        # points sampled on a real subspace W: non-parallel connections have
        # rank-2 class restrictions
        rng = np.random.default_rng(12)
        from flatscale.charts import get_chart
        from flatscale.unfolding import enumerate_saddle_connections

        chart = get_chart("h2-octagon")
        hits = 0
        while hits < 10:
            b = rng.normal(size=(4, 2))
            W = real_subspace(b)
            w = rng.uniform(-1.5, 1.5, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
            z = W.embed(w)
            if not chart.admissible(z):
                continue
            surf = chart.build(z)
            scs = enumerate_saddle_connections(surf, 1.2)
            pairs = [
                (s1, s2)
                for i, s1 in enumerate(scs)
                for s2 in scs[i + 1:]
                if not are_parallel(s1, s2)
            ]
            if not pairs:
                continue
            for s1, s2 in pairs[:20]:
                classes = np.array([s1.class_vector, s2.class_vector])
                r1 = np.linalg.norm(W.restrict_classes(classes[0:1]))
                r2 = np.linalg.norm(W.restrict_classes(classes[1:2]))
                if r1 > 1e-9 and r2 > 1e-9:
                    assert independence_rank(classes, W) == 2
            hits += 1
