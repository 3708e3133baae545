"""Linear subspaces of period coordinates and independence tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import integer

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
    array of shape (...), one per matrix, from one stacked SVD.  The rank
    counts the singular values above ``TAU_RANK`` times the largest (none
    when the largest is 0).  A one-row matrix of finite entries has one
    singular value, its norm, which passes that test exactly when the row
    is nonzero, so such stacks take no SVD.
    """
    g = subspace.restrict_classes(classes)
    if g.shape[-2] == 1 and np.isfinite(g).all():
        rank = (g != 0).any(axis=-1)[..., 0]
        return int(rank) if g.ndim == 2 else rank.astype(np.int64)
    sv = np.linalg.svd(g, compute_uv=False)
    rank = np.sum(sv > TAU_RANK * sv[..., :1], axis=-1)
    return int(rank) if g.ndim == 2 else rank
