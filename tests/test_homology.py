import math

import numpy as np
import pytest

from flatscale.homology import (
    TAU_RANK,
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


class TestLinearSubspace:
    @pytest.mark.parametrize("dim", [2.0, True, np.True_, "2", -1, 0],
                             ids=repr)
    def test_bad_ambient_dim_named(self, dim):
        # LinearSubspace(2.0), (True) and (-1) were accepted
        with pytest.raises(ValueError, match="ambient_dim"):
            LinearSubspace(dim)

    def test_numpy_ambient_dim_accepted(self):
        assert LinearSubspace(np.int64(3)).dim == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan), complex(1, np.inf)],
                             ids=repr)
    def test_non_finite_basis_named(self, bad):
        # a nan died in the SVD (LinAlgError: SVD did not converge), and an
        # inf was reported as dependent columns
        basis = np.eye(4, 2, dtype=complex)
        basis[2, 1] = bad
        with pytest.raises(ValueError, match="basis .*not finite"):
            LinearSubspace(4, basis)

    def test_basis_without_columns_named(self):
        # a (4, 0) basis made a subspace of dim 0, whose scan estimated 0
        with pytest.raises(ValueError, match="basis has no columns"):
            LinearSubspace(4, np.zeros((4, 0)))

    def test_one_dimensional_basis_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"basis shape \(2,\) does not "
                                                    "match ambient dim 2"):
            LinearSubspace(2, np.array([1.0, 0.0]))

    def test_dependent_basis_named(self):
        with pytest.raises(ValueError, match="basis columns are not independent"):
            LinearSubspace(2, np.array([[1.0, 2.0], [1.0, 2.0]]))


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

    def test_one_row_matrices_take_no_svd(self, monkeypatch):
        """A one-row matrix has rank 1 exactly when its restricted row is
        nonzero: the ranks the SVD gives, without an SVD."""
        rng = np.random.default_rng(4)
        rows = rng.integers(-2, 3, size=(300, 1, 4)).astype(float)
        rows[::7] = 0
        rows[1, 0] = [1e-320, 0, 0, 0]  # subnormal
        rows[2, 0] = [1e300, -1e300, 3e307, 0]  # a norm beyond the floats
        for W in (LinearSubspace(4),
                  real_subspace(np.array([[1.0, 0], [0, 1], [1, 1], [1, -1]])),
                  LinearSubspace(4, np.eye(4)[:, :2].astype(complex))):
            sv = np.linalg.svd(W.restrict_classes(rows), compute_uv=False)
            want = (sv > TAU_RANK * sv[..., :1]).sum(axis=-1).tolist()
            assert 0 < sum(want) < len(want)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", None)
                got = independence_rank(rows, W)
                alone = [independence_rank(r, W) for r in rows]
            assert got.shape == (300,) and got.tolist() == want
            assert alone == want and all(type(r) is int for r in alone)


def _svd_ranks(rows, W):
    """The ranks of the SVD route: singular values above TAU_RANK times
    the largest."""
    sv = np.linalg.svd(W.restrict_classes(rows), compute_uv=False)
    return (sv > TAU_RANK * sv[..., :1]).sum(axis=-1)


class TestExactRanks:
    """On the full space, stacks of two or three int64 rows are ranked from
    their minors in int64, with no SVD, while every minor fits."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("r", [2, 3])
    def test_equal_to_svd_ranks(self, n, r, monkeypatch):
        rng = np.random.default_rng(10 * n + r)
        rows = rng.integers(-3, 4, size=(4000, r, n))
        rows[::5, 1] = 2 * rows[::5, 0]  # repeated, up to a factor
        rows[1::5, r - 1] = rows[1::5, 0]  # repeated
        rows[2::5, r - 1] = 0  # a zero row
        rows[3::7] = 0  # all zero
        rows[4::9, r - 1] = rows[4::9, 0] - rows[4::9, 1]  # a sum
        W = LinearSubspace(n)
        want = _svd_ranks(rows, W)
        assert set(want.tolist()) == set(range(min(r, n) + 1))
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", None)
            got = independence_rank(rows, W)
            alone = [independence_rank(x, W) for x in rows[:200]]
        assert got.dtype == np.int64 and got.shape == (4000,)
        assert got.tolist() == want.tolist()
        assert alone == want[:200].tolist() and all(type(x) is int for x in alone)

    @pytest.mark.parametrize("r", [2, 3])
    def test_overflow_guard(self, r, monkeypatch):
        """c^r r! < 2**63: exact at the largest such c, the SVD from the
        next c on; an exact rank where the SVD's tolerance fails."""
        c = int((2**63 / math.factorial(r)) ** (1 / r))
        while c ** r * math.factorial(r) >= 2**63:
            c -= 1
        while (c + 1) ** r * math.factorial(r) < 2**63:
            c += 1
        assert c ** r * math.factorial(r) < 2**63 <= (c + 1) ** r * math.factorial(r)
        W = LinearSubspace(4)
        # det [[c, c - 1], [c - 1, c - 2]] = -1: rank 2, with a condition
        # number near c^2, where the SVD's TAU_RANK sees rank 1
        top = np.array([[c, c - 1, 0, 0], [c - 1, c - 2, 0, 0],
                        [0, 0, 1, 0]][:r], np.int64)
        stack = np.stack([top, -top, np.zeros_like(top)])
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", None)
            assert independence_rank(stack, W).tolist() == [r, r, 0]
        if r == 2:
            assert _svd_ranks(top, W) == 1
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for big in (c + 1, -(c + 1), 2**62, -2**63):
            stack[0, 0, 0] = big
            independence_rank(stack, W)
        assert len(calls) == 4

    def test_other_stacks_take_the_svd(self, monkeypatch):
        """Four rows, float rows and a subspace with a basis go to the SVD."""
        rng = np.random.default_rng(2)
        rows = rng.integers(-2, 3, size=(50, 4, 4))
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        independence_rank(rows, LinearSubspace(4))
        independence_rank(rows[:, :2].astype(float), LinearSubspace(4))
        W = LinearSubspace(4, np.eye(4)[:, :3].astype(complex))
        assert (independence_rank(rows[:, :2], W)
                == _svd_ranks(rows[:, :2], W)).all()
        assert len(calls) == 4


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
