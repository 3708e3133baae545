"""The greedy prefix ranks, one surface at a time, kept as the reference
for ``sampling._rank_thresholds``.

``prefix_ranks`` and ``reference_thresholds`` are the loops the scan ran
before it ranked every surface of a chunk in stacked rounds; the tests
check that the rounds give the same thresholds.
"""

import numpy as np

from flatscale.homology import LinearSubspace, independence_rank


def prefix_ranks(classes: np.ndarray, subspace: LinearSubspace,
                 k_max: int) -> list[int]:
    """min(rank of classes[:j] on W, k_max) for j = 1, ..., len(classes).

    A class equal to an earlier one (homologous connections) cannot raise
    the rank, so it is not ranked again.
    """
    cap = min(k_max, subspace.dim)
    independent: list[int] = []
    seen = set()
    ranks = []
    for j in range(classes.shape[0]):
        if len(independent) >= cap:
            break
        key = classes[j].tobytes()
        if key not in seen:
            seen.add(key)
            rank = independence_rank(classes[independent + [j]], subspace)
            if rank > len(independent):
                independent.append(j)
        ranks.append(len(independent))
    ranks.extend([len(independent)] * (classes.shape[0] - len(ranks)))
    return ranks


def reference_thresholds(batch, subspace: LinearSubspace, k_max: int) -> np.ndarray:
    """R[s, i]: the length at which the prefix rank of surface s's
    connections first reaches i + 1, or inf; one surface at a time."""
    thresholds = np.full((len(batch.dims), k_max), np.inf)
    for s in range(len(batch.dims)):
        a, b = batch.offsets[s], batch.offsets[s + 1]
        if a == b:
            continue
        classes = batch.classes[a:b, :batch.dims[s]].astype(complex)
        ranks = prefix_ranks(classes, subspace, k_max)
        first = np.searchsorted(ranks, np.arange(1, k_max + 1))
        reached = first < b - a
        thresholds[s, reached] = batch.length[a + first[reached]]
    return thresholds
