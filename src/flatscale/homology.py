"""Linear subspaces of period coordinates and independence tests."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .checks import integer
from .surface import INT64_LIMIT

TAU_PARALLEL = 1e-12
TAU_RANK = 1e-10


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class LinearSubspace:
    """Subspace W of the chart's period coordinates C^n.

    ``basis`` has shape (n, d), d >= 1, with finite entries and
    independent columns spanning W; None means the full space.  A
    ``ValueError`` names ``basis`` otherwise (``DimensionMismatch`` for
    the wrong shape).  ``ambient_dim`` n is an integer >= 1, not a bool; a
    ``ValueError`` names it otherwise.
    """

    ambient_dim: int
    basis: np.ndarray | None = None

    def __post_init__(self):
        if integer(self.ambient_dim, "ambient_dim") < 1:
            raise ValueError(f"ambient_dim must be at least 1, "
                             f"got {self.ambient_dim}")
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=complex)
            if b.ndim != 2 or b.shape[0] != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis shape {b.shape} does not match ambient dim "
                    f"{self.ambient_dim}")
            if not b.shape[1]:
                raise ValueError("basis has no columns: W would be {0}")
            if not np.isfinite(b).all():
                raise ValueError("basis has entries that are not finite")
            if np.linalg.matrix_rank(b) < b.shape[1]:
                raise ValueError("basis columns are not independent")
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.ambient_dim if self.basis is None else self.basis.shape[1]

    def embed(self, w: np.ndarray) -> np.ndarray:
        """Map intrinsic coordinates w in C^d to ambient points."""
        if self.basis is None:
            return np.asarray(w, dtype=complex)
        return np.asarray(w, dtype=complex) @ self.basis.T

    def restrict_classes(self, classes) -> np.ndarray:
        """Rows of ``classes`` (..., r, n) as functionals on W (in intrinsic
        coordinates)."""
        g = np.atleast_2d(np.asarray(classes, dtype=complex))
        if g.shape[-1] != self.ambient_dim:
            raise DimensionMismatch(
                f"classes have {g.shape[-1]} coordinates, expected "
                f"{self.ambient_dim}")
        return g if self.basis is None else g @ self.basis


def real_subspace(rows: np.ndarray) -> LinearSubspace:
    """Complexification of the real column span of ``rows`` (n x d real)."""
    b = np.asarray(rows, dtype=float)
    return LinearSubspace(b.shape[0], b.astype(complex))


def are_parallel(s1, s2, tol: float = TAU_PARALLEL) -> bool:
    """Holonomy parallelism with a relative tolerance."""
    h1 = complex(getattr(s1, "holonomy", s1))
    h2 = complex(getattr(s2, "holonomy", s2))
    cross = h1.real * h2.imag - h1.imag * h2.real
    return abs(cross) <= tol * abs(h1) * abs(h2)


def independence_rank(classes, subspace: LinearSubspace):
    """Rank over C of the homology classes restricted to the subspace.

    ``classes`` holds one class per row, (r, n), and the rank is an int;
    or it is a stack of such matrices, (..., r, n), and the ranks are an
    array of shape (...), one per matrix.  On the full space (``basis``
    None) a stack of two or three int64 rows is ranked exactly, from its
    minors in int64 (``_exact_ranks``), when every minor fits: c^r r! <
    2**63, c the largest |entry|.  Any other matrix takes one stacked SVD,
    and its rank counts the singular values above ``TAU_RANK`` times the
    largest (none when the largest is 0).  A one-row matrix of finite
    entries has one singular value, its norm, which passes that test
    exactly when the row is nonzero, so such stacks take no SVD.
    """
    c = np.asarray(classes)
    if (subspace.basis is None and c.dtype == np.int64 and c.ndim >= 2
            and 2 <= c.shape[-2] <= 3 and c.shape[-1] == subspace.ambient_dim):
        r = c.shape[-2]
        big = max(int(c.max(initial=0)), -int(c.min(initial=0)))
        if big ** r * math.factorial(r) < INT64_LIMIT:
            rank = _exact_ranks(c)
            return int(rank) if c.ndim == 2 else rank
    g = subspace.restrict_classes(c)
    if g.shape[-2] == 1 and np.isfinite(g).all():
        rank = (g != 0).any(axis=-1)[..., 0]
        return int(rank) if g.ndim == 2 else rank.astype(np.int64)
    sv = np.linalg.svd(g, compute_uv=False)
    rank = np.sum(sv > TAU_RANK * sv[..., :1], axis=-1)
    return int(rank) if g.ndim == 2 else rank


@functools.lru_cache(maxsize=None)
def _column_sets(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The columns of every k-subset i < j (< l) of range(n), one index
    array per position."""
    sets = np.array(list(itertools.combinations(range(n), k)), np.intp)
    return tuple(sets.reshape(-1, k).T)


def _exact_ranks(c: np.ndarray) -> np.ndarray:
    """The ranks of a stack (..., r, n) of int64 matrices of r = 2 or 3
    rows: the order of their largest nonzero minor.  The caller checks
    that c^r r! < 2**63, which bounds every minor and every partial sum."""
    n = c.shape[-1]
    i, j = _column_sets(n, 2)

    def minors(a, b):  # a_i b_j - a_j b_i, one per column pair
        return a[..., i] * b[..., j] - a[..., j] * b[..., i]

    one = (c != 0).any(axis=(-2, -1))
    a, b = c[..., 0, :], c[..., 1, :]
    two = minors(a, b).any(axis=-1)
    three = False
    if c.shape[-2] == 3:
        x = c[..., 2, :]
        two |= minors(a, x).any(axis=-1) | minors(b, x).any(axis=-1)
        # expanded along x: x_i m_jl - x_j m_il + x_l m_ij, m the minors of
        # a and b
        i, j, l = _column_sets(n, 3)
        three = (x[..., i] * (a[..., j] * b[..., l] - a[..., l] * b[..., j])
                 - x[..., j] * (a[..., i] * b[..., l] - a[..., l] * b[..., i])
                 + x[..., l] * (a[..., i] * b[..., j] - a[..., j] * b[..., i])
                 ).any(axis=-1)
    return np.where(three, 3, np.where(two, 2, np.where(one, 1, 0)))
