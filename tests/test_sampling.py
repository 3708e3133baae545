import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flatscale import sampling, surface
from flatscale.charts import ChartModel, get_chart
from flatscale.homology import (
    TAU_RANK,
    LinearSubspace,
    independence_rank,
    real_subspace,
)
from flatscale.sampling import scan_chart
from flatscale.surface import (
    DELAUNAY_TOL,
    SurfaceBatch,
    SurfaceError,
    polygon_simple_mask,
    reduce_lattice_bases,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_polygon_batch,
    symmetric_vertices,
)
from flatscale.torus_oracle import cone_volume_quadrature, torus_exact_oracle
from flatscale.unfolding import (
    DEFAULT_BUDGET,
    PAIR_EPS,
    UnfoldedBatch,
    UnfoldingBudgetError,
    unfold_surfaces,
)

from all_rows_area_check import all_rows_unit_area_check
from scalar_delaunay import scores
from scalar_ear_clip import scalar_ear_clip
from scalar_prefix_ranks import prefix_ranks, reference_thresholds

N_FAST = 60_000
SEED = 1234
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
SUBSPACE_BASIS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])


@pytest.fixture
def chunk_size(monkeypatch):
    """Sets ``sampling.DEFAULT_CHUNK``, the samples of a chunk and the least
    batch of cone samples, which ``scan_chart`` passes to its workers."""
    def set_chunk_size(size):
        monkeypatch.setattr(sampling, "DEFAULT_CHUNK", size)
    return set_chunk_size


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

    def test_process_pool_imported_only_for_workers(self):
        """Importing the scan loads no process pool: one worker never uses
        it, and ``multiprocessing`` is a large share of the import."""
        src = str(Path(sampling.__file__).resolve().parents[1])
        code = ("import sys, flatscale.sampling\n"
                "print(sorted(m for m in ('concurrent.futures.process', "
                "'multiprocessing') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["[]"]

    def test_spawned_workers_get_the_chunk(self, chunk_size, monkeypatch):
        """The scan passes ``DEFAULT_CHUNK`` to its workers, so a worker
        started by ``spawn``, which imports the module afresh, scans the
        chunks this process set."""
        import concurrent.futures
        import multiprocessing

        pool = concurrent.futures.ProcessPoolExecutor
        started = []

        def spawning_pool(max_workers):
            started.append(max_workers)
            return pool(max_workers=max_workers,
                        mp_context=multiprocessing.get_context("spawn"))

        chunk_size(8192)
        cells = [None, (0.3,), (0.45,), (0.3, 0.45)]
        want = scan_chart("torus", None, cells, 40_000, SEED)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            spawning_pool)
        assert scan_chart("torus", None, cells, 40_000, SEED, threads=2) == want
        assert started == [2]

    def test_different_seeds_differ(self):
        a = scan_chart("torus", None, [(0.3,)], N_FAST, 1).estimates[0]
        b = scan_chart("torus", None, [(0.3,)], N_FAST, 2).estimates[0]
        assert a.accepted != b.accepted


class TestSampleDraw:
    @pytest.mark.parametrize("seed", [1, 7, 101])
    def test_view_has_the_bits_of_the_column_sum(self, seed):
        """The complex view of a chunk's uniform draw has the bits of
        re + 1j im formed from its even and odd columns."""
        for dim in (1, 2, 4, 5):
            for chunk in range(3):
                x = sampling._sample_params(sampling._chunk_generator(seed, chunk),
                                            4096, dim, 2.0)
                flat = sampling._chunk_generator(seed, chunk).uniform(
                    -2.0, 2.0, size=(4096, 2 * dim))
                want = flat[:, 0::2] + 1j * flat[:, 1::2]
                assert x.shape == (4096, dim) and x.dtype == complex
                np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))

class TestSubspaceSampling:
    def test_full_rank_subspace_on_octagon(self):
        rng = np.random.default_rng(4)
        basis = rng.normal(size=(4, 2))
        W = LinearSubspace(4, basis.astype(complex))
        # W holds the octagons of its samples with 0 < area <= 1, and none
        # of those is simple
        with pytest.warns(RuntimeWarning, match=r"\(0 of 7313 samples"):
            res = scan_chart("h2-octagon", W, [(0.5,)], 30_000, SEED)
        est = res.estimates[0]
        assert res.admissible == res.admissible_fraction == est.admissible == 0
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
        dims=(4,) * len(sizes), nodes=np.zeros(len(sizes), np.int64))


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
# must leave every count bit-identical.  The None cell of "octagon-subspace"
# was added later; it adds a count and changes none.
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
        20_000, [None, (0.5,), (0.8,), (0.8, 1.0)]),
}
GOLDEN_COUNTS = {
    ("torus", 1): [4330, 5, 12, 97, 472, 0],
    ("torus", 2): [4247, 10, 25, 106, 477, 0],
    ("octagon", 1): [463, 155, 371, 463, 463, 13, 48, 128, 155, 109, 332, 371,
                     422, 463, 463],
    ("octagon", 2): [446, 159, 352, 446, 446, 14, 69, 135, 159, 112, 313, 352,
                     405, 446, 446],
    ("octagon-subspace", 1): [1573, 1142, 1573, 1088],
    ("octagon-subspace", 2): [1565, 1095, 1565, 1089],
}


# The gates of the same scans: samples of positive area, of those the ones
# of area <= 1 (the samples masked), and of those the admissible ones (the
# cone).  The first two are the counts of the scan that masked every sample
# of positive area; the admissible count then counted all of its admissible
# samples (10049, 10024, 11492, 11640, 9951 and 9976 in this order).
GOLDEN_GATES = {
    ("torus", 1): (10049, 4330, 4330),
    ("torus", 2): (10024, 4247, 4247),
    ("octagon", 1): (19897, 4344, 463),
    ("octagon", 2): (19979, 4302, 446),
    ("octagon-subspace", 1): (9951, 1573, 1573),
    ("octagon-subspace", 2): (9976, 1565, 1565),
}


# Chain nodes the unfolding expanded in the same scans: only the surfaces
# that the retriangulation leaves non-Delaunay are searched, each only as
# far as the radii below E_(cap - 1) need (see sampling._count_cone_batch);
# the reduced tori are all Delaunay.  With every surface searched to the
# radii below a one- or two-edge certificate: 2932, 3166, 4112, 3837, 63662
# and 63429 in this order; searched to the largest radius: 2932, 3166,
# 37011, 34968, 104105 and 104054; to each surface's own R_(cap - 1), with
# a second search where the edges' guess fell short: 2932, 3166, 9153,
# 8504, 80308 and 80787; before the retriangulation, on the ear-clip
# surfaces: 2966, 3219, 71241, 67394, 430442 and 435183.
GOLDEN_NODES = {
    ("torus", 1): 0,
    ("torus", 2): 0,
    ("octagon", 1): 241,
    ("octagon", 2): 209,
    ("octagon-subspace", 1): 30617,
    ("octagon-subspace", 2): 31350,
}


def _assert_golden_scan(case, seed, threads):
    """Counts, gates and nodes of a golden scan are the goldens."""
    chart, rows, samples, cells = GOLDEN_CASES[case]
    W = None if rows is None else real_subspace(rows)
    res = scan_chart(chart, W, cells, samples, seed, threads=threads)
    counts = [e.accepted for e in res.estimates]
    assert counts == GOLDEN_COUNTS[case, seed]
    gates = (res.positive_area, res.area_at_most_one, res.admissible)
    assert gates == GOLDEN_GATES[case, seed]
    assert res.positive_area >= res.area_at_most_one >= res.admissible
    # the samples that pass the mask are the plain cone
    assert res.admissible == counts[cells.index(None)]
    assert {e.admissible for e in res.estimates} == {res.admissible}
    assert res.admissible_fraction == res.admissible / res.area_at_most_one
    assert res.unfolding_nodes == GOLDEN_NODES[case, seed]
    assert res.build_failures == 0


# SHA-256 of repr(ScanResult) over a larger grid, recorded before the area
# gates were decided from the sides in closed form and the unfolding counted
# its nodes lazily: every count, gate and float of the result must stay
# bit-identical, for any worker count.  The node count is hashed as the
# ear-clip surfaces gave it (PARENT_NODES); the nodes the scan expands now
# are pinned in DIGEST_NODES.  Only the non-Delaunay surfaces are searched
# now; with every surface searched to the radius below a one- or two-edge
# certificate they were 68033, 68330, 90261, 90311, 368215 and 377978 (the
# cell (0.3, 0.6, 0.9) needs rank 3, which had no certificate, so only the
# rank-2 subspace scans searched less than the largest radius: 522073 and
# 533372 there before, and 445568 and 455401 to each surface's own
# R_(cap - 1)).
DIGEST_CELLS = [None, (0.15,), (0.3,), (0.45,), (0.2, 0.7), (0.4, 0.4),
                (0.3, 0.6, 0.9)]
DIGEST_CASES = {
    "torus": ("torus", None, 60_000),
    "octagon": ("h2-octagon", None, 120_000),
    "octagon-subspace": ("h2-octagon", SUBSPACE_BASIS, 120_000),
}
REPR_DIGESTS = {
    ("torus", 11): "a5bedbe06029ad3ebb1786e64cd4a7ecdac87e4433dc1cb8ab6ed035429042e3",
    ("torus", 12): "a5d11f38e9091331c89948e551cc3aeebc7c06ce2e2ca9d36c58e93d39cca18b",
    ("octagon", 11): "803aa35cf7083c807d2dc526ade4668b0708178d67804609db1e26e05ace9016",
    ("octagon", 12): "477bb46e796dabd3b6dd6ab2e20bcfd73d3d12ab13da93e07b8c0c253a1583b1",
    ("octagon-subspace", 11): "4b35af920f339d435a8049c76e5419e7a0e67bdd503fdefc24b88e4a016896bc",
    ("octagon-subspace", 12): "385409ad1ea0fdabd32c4d2917979dcd5305f01d0e32497370cc3f0c5ff498f9",
}
PARENT_NODES = {  # recorded on the ear-clip surfaces, before SurfaceBatch.delaunay
    ("torus", 11): 68663,
    ("torus", 12): 68985,
    ("octagon", 11): 180186,
    ("octagon", 12): 178974,
    ("octagon-subspace", 11): 2268678,
    ("octagon-subspace", 12): 2400658,
}
DIGEST_NODES = {
    ("torus", 11): 0,
    ("torus", 12): 0,
    ("octagon", 11): 1419,
    ("octagon", 12): 1136,
    ("octagon-subspace", 11): 171046,
    ("octagon-subspace", 12): 182294,
}


# SHA-256 of every array of the SurfaceBatch that _cone_surfaces builds from
# chunk 0 of seed 1 (its dtype, shape and bytes; the dims tuple as its
# repr), recorded before the ear clip and the lattice reduction were
# rewritten on real corners-first arrays: a rewrite of a build kernel must
# leave the built surfaces bit-identical, not only the scan results.
BUILD_DIGESTS = {
    "torus": {
        "edge":
            "e506b3dfe46c7518af4958f373855d738082eb035377512b1e4d50b536067bbf",
        "neighbor":
            "9bc6a06d02e55f46a9f2f827c569d08c93c0ce6a819e5f5415c13dfdeaad4aa2",
        "corner_vertex":
            "75dc96f68cedf736c945a8e495ceb398e2b58417d94f0ef7584b55f650bd3b1c",
        "coeffs":
            "4864938bbcabc5676e36d2d6c39d453b17df8779e72b030e4af89a680e385e11",
        "start":
            "71ade000cffa830e8655100268116bbdf7f63e1b1a3bc3ddcf20314105085fd9",
        "surf":
            "8502d77e5b3a75b78af227385afe8d513ddccb589524661038aeb4dd387e1f46",
        "dims":
            "bcc62502728970f075b555e499fecec310a5cb569505c6d311a52494e6e9eefe",
    },
    "octagon": {
        "edge":
            "82e085aad63e7a621d1d0ac48890427de02bdccdcffa66129f8d24e5fe836fe6",
        "neighbor":
            "382e792376567b97b91345688be118e949232df9c28badb7b9216242061652a4",
        "corner_vertex":
            "bbbf2905aa4ee314b8a3412ebe69d9d15f084e0fd51d08133c3fe025e6a44250",
        "coeffs":
            "8720c44e0505dc7c91de4fef4ceb9877f52c0a3a79223b12ea741759489cbb89",
        "start":
            "67dd50e9b8ca88b8a18fcd77106942d33ab1a13c5b4ca1c6f202da20ca35e758",
        "surf":
            "34b167024b154b9856efcf12948308db6114eb2f8e4a07e08147a28c0b1c84e8",
        "dims":
            "981f10321f126b9cfadf8304428f03a882f72d04462f36ce28b92d93e51ccc8a",
    },
    "octagon-subspace": {
        "edge":
            "1ad91ddc4f80c51a0ab4fce84462e7e07cc4da1a3da1d2f6b6ddfdd884340206",
        "neighbor":
            "28ffa9c6f282cc04c5176b46a64a3204ec08562e0a132538513123539ac428ec",
        "corner_vertex":
            "f1bbe89d81c05d92ef8ebae0e9346b42a755a637e925f70f76e9985aef730c98",
        "coeffs":
            "fe1b4d513b1518f726bc99a05d43a64344d70fecaa4d07f41492df202c4342fe",
        "start":
            "02f23a0059b1be66bc7f532c925bd6f683c6e66ea507bd4dac3a66025af3b9fb",
        "surf":
            "34adf2781fc7b2c35c5e5c922f36c7f231e54da4e01c9c7991dff3404f25fa27",
        "dims":
            "70e6ead0411a001cba27717cd8eedad1938043c89ed1ec0c14adb65be0d1be66",
    },
}


def _build_digests(case):
    """The digests of the surfaces built from chunk 0 of seed 1 of a
    golden case, and the chunk's build failures."""
    chart, rows, _, _ = GOLDEN_CASES[case]
    chart = get_chart(chart)
    W = LinearSubspace(chart.dim) if rows is None else real_subspace(rows)
    sides = sampling._process_chunk(chart, W, 1, 0, sampling.DEFAULT_CHUNK)[0]
    batch, failures = sampling._cone_surfaces(chart, sides)
    out = {}
    for field in ("edge", "neighbor", "corner_vertex", "coeffs", "start", "surf"):
        a = np.ascontiguousarray(getattr(batch, field))
        h = hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode())
        h.update(a.tobytes())
        out[field] = h.hexdigest()
    out["dims"] = hashlib.sha256(repr(batch.dims).encode()).hexdigest()
    return out, failures


class TestGoldenCounts:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_build_digests(self, case):
        digests, failures = _build_digests(case)
        assert failures == 0
        assert digests == BUILD_DIGESTS[case]

    @pytest.mark.parametrize("case, seed", sorted(GOLDEN_COUNTS))
    def test_accepted_counts(self, case, seed):
        _assert_golden_scan(case, seed, threads=1)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("case, seed", sorted(GOLDEN_COUNTS))
    def test_any_worker_count(self, case, seed, threads):
        _assert_golden_scan(case, seed, threads)

    @pytest.mark.parametrize("case, seed", sorted(GOLDEN_COUNTS))
    def test_counts_without_retriangulation(self, case, seed, monkeypatch):
        """With no retriangulation round most octagons are not Delaunay, so
        searched below their edge thresholds: the counts and gates are the
        goldens, with more nodes."""
        monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", 0)
        chart, rows, samples, cells = GOLDEN_CASES[case]
        W = None if rows is None else real_subspace(rows)
        res = scan_chart(chart, W, cells, samples, seed)
        assert [e.accepted for e in res.estimates] == GOLDEN_COUNTS[case, seed]
        gates = (res.positive_area, res.area_at_most_one, res.admissible)
        assert gates == GOLDEN_GATES[case, seed]
        # the tori skip the retriangulation
        if case == "torus":
            assert res.unfolding_nodes == 0
        else:
            assert res.unfolding_nodes > 5 * GOLDEN_NODES[case, seed]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case, seed", sorted(REPR_DIGESTS))
    def test_result_digest(self, case, seed, threads):
        chart, rows, samples = DIGEST_CASES[case]
        W = None if rows is None else real_subspace(rows)
        res = scan_chart(chart, W, DIGEST_CELLS, samples, seed, threads=threads)
        assert res.unfolding_nodes == DIGEST_NODES[case, seed]
        parent = dataclasses.replace(res, unfolding_nodes=PARENT_NODES[case, seed])
        digest = hashlib.sha256(repr(parent).encode()).hexdigest()
        assert digest == REPR_DIGESTS[case, seed]


class TestChartInput:
    def test_custom_chart_matches_builtin(self, chunk_size):
        chunk_size(8192)
        builtin = get_chart("torus", 1.0)
        custom = ChartModel("my-torus", 2, builtin.half_width)
        cells = [None, (0.2,), (0.45,)]
        want = scan_chart(builtin, None, cells, 20_000, SEED)
        for threads in (1, 2):
            got = scan_chart(custom, None, cells, 20_000, SEED, threads=threads)
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

    @pytest.mark.parametrize("cell, bad", [
        ([True], "True"), (True, "True"), ((0.2, np.True_), "np.True_"),
        ("0.3", "'0.3'"), ((0.2, "0.4"), "'0.4'"), ("abc", "'abc'"),
        (0.3 + 0j, r"\(0.3\+0j\)"),
        ((0.2, np.complex128(0.4)), r"np.complex128\(0.4\+0j\)"),
        (((0.2, 0.3),), r"\(0.2, 0.3\)"), ((0.2, None), "None"),
    ], ids=repr)
    def test_non_real_radius_rejected(self, cell, bad, monkeypatch):
        # [True] once scanned as radius 1.0 and "0.3" as 0.3; "abc" and
        # 0.3+0j raised float()'s bare messages
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        with pytest.raises(ValueError, match=rf"radius cell .* holds {bad}, "
                                             "not a real number"):
            scan_chart("torus", None, [(0.3,), cell], 1000, 1)

    def test_real_radius_types_accepted(self):
        cells = [np.float32(0.25), (np.int64(1), 0.5), np.array([0.5, 0.3])]
        got = scan_chart("torus", None, cells, 2000, 1).estimates
        assert [e.eps for e in got] == [(float(np.float32(0.25)),), (0.5, 1.0),
                                        (0.3, 0.5)]

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

    @pytest.mark.parametrize("subspace", [SUBSPACE_BASIS, "W"])
    def test_subspace_not_a_linear_subspace_rejected(self, subspace):
        # a basis array or a string once died on a missing ambient_dim
        with pytest.raises(ValueError, match="subspace must be None or a "
                                             "LinearSubspace"):
            scan_chart("h2-octagon", subspace, [0.3], 2000, 1)

    def test_basis_that_overflows_the_box_rejected(self):
        # a corner of the box overflowed in LinearSubspace.embed: the scan
        # leaked "overflow encountered in matmul" and kept 0 of 0 samples
        huge = LinearSubspace(2, np.array([[1e308], [1e308]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="subspace"):
                scan_chart("torus", huge, [0.3], 2000, 1)

    @pytest.mark.parametrize("chart, eps_cells, name", [
        (5, [0.3], "chart"), ("torus", 0.3, "eps_cells"),
        ("torus", "0.3", "eps_cells"), ("torus", np.array(0.3), "eps_cells"),
        ("torus", None, "eps_cells"),
    ], ids=repr)
    def test_bad_chart_or_cells_named(self, chart, eps_cells, name, monkeypatch):
        # chart=5 raised a bare AttributeError, eps_cells=0.3 a bare
        # TypeError, and "0.3" was iterated: "radius cell '0' holds '0'"
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            scan_chart(chart, None, eps_cells, 1000, 1)

    def test_empty_radius_cell_rejected(self):
        # an empty cell once raised a bare IndexError from the largest radius
        with pytest.raises(ValueError, match=r"radius cell \(\) is empty"):
            scan_chart("torus", None, [(0.3,), ()], 1000, 1)
        with pytest.raises(ValueError, match=r"radius cell \[\] is empty"):
            scan_chart("h2-octagon", None, [[]], 1000, 1)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(samples=2000.0), "samples"),
        (dict(samples="2000"), "samples"),
        (dict(samples=999), "samples"),
        (dict(samples=np.float64(2000.0)), "samples"),
        (dict(threads="2"), "threads"),
        (dict(threads=0), "threads"),
        (dict(threads=-2), "threads"),
        (dict(threads=1.5), "threads"),
    ])
    def test_bad_count_argument_named(self, kwargs, name, monkeypatch):
        # a float samples once raised a bare TypeError, and threads=0 and
        # threads=1.5 were accepted
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        args = {"samples": 2000, "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=name):
            scan_chart("torus", None, [(0.3,)], **args)

    @pytest.mark.parametrize("name", ["samples", "threads"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_count_rejected(self, name, flag, monkeypatch):
        # bool is Integral, but True is no count
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        args = {"samples": 2000, "seed": 1, name: flag}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            scan_chart("torus", None, [(0.3,)], **args)

    @pytest.mark.parametrize("seed", [1.5, True, False, "3", None, -1, 2**128,
                                      np.float64(2.0)], ids=repr)
    def test_bad_seed_rejected(self, seed, monkeypatch):
        # None once drew OS entropy and recorded seed=None; -1 and 2**128
        # raised numpy's bare "key must be positive and less than 2**128."
        def no_chunks(args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(sampling, "_process_chunk", no_chunks)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            scan_chart("torus", None, [(0.3,)], 1000, seed)

    def test_seed_range_accepted(self):
        for seed in (0, 2**128 - 1, np.int64(7), np.uint64(2**63)):
            res = scan_chart("torus", None, [0.3], 1000, seed)
            assert res.estimates[0].seed == seed
        assert scan_chart("torus", None, [0.3], 1000, np.int32(7)) == scan_chart(
            "torus", None, [0.3], 1000, 7)

    def test_numpy_integer_counts_accepted(self, chunk_size):
        chunk_size(700)
        want = scan_chart("torus", None, [0.3], 2000, 1)
        got = scan_chart("torus", None, [0.3], np.int64(2000), 1, threads=np.int32(1))
        assert got == want

    @pytest.mark.parametrize("dim, half_width, name", [
        (3.0, 2.0, "dim"), ("2", 2.0, "dim"), (True, 2.0, "dim"),
        (2, True, "half_width"), (2, "2.0", "half_width"),
        (2, np.True_, "half_width"), (2, 2 + 0j, "half_width"),
    ], ids=repr)
    def test_chart_argument_not_a_number_named(self, dim, half_width, name):
        # ChartModel("x", 3.0, 2.0) was accepted and failed in scan_chart
        # with a bare TypeError, dim="2" raised one, half_width=True passed
        with pytest.raises(ValueError, match=name):
            ChartModel("x", dim, half_width)

    def test_numpy_chart_arguments_accepted(self):
        chart = ChartModel("x", np.int64(2), np.float32(2.0))
        assert chart.box_volume == ChartModel("x", 2, 2.0).box_volume

    @pytest.mark.parametrize("dim", [1, 0, -2])
    def test_chart_of_fewer_than_two_sides_rejected(self, dim):
        # ChartModel("x", 1, 2.0) once scanned until the ear clip raised
        with pytest.raises(ValueError, match="at least 2 side parameters"):
            ChartModel("x", dim, 2.0)

    def test_worker_error_propagates(self, chunk_size, monkeypatch):
        # every torus is Delaunay, so taken as not Delaunay here to be
        # searched; with the cell (0.45,) alone none would expand a node:
        # each is searched to 0.45 below its shortest edge, or not at all
        chunk_size(500)
        monkeypatch.setattr(sampling, "DEFAULT_BUDGET", 1)
        monkeypatch.setattr(SurfaceBatch, "is_delaunay",
                            lambda batch: np.zeros(len(batch), bool))
        with pytest.raises(UnfoldingBudgetError):
            scan_chart("torus", None, [(0.45,), (1.0,)], 2000, SEED, threads=2)


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
    def test_failures_counted_for_any_worker_count(self, chunk_size,
                                                   monkeypatch):
        chunk_size(8192)
        half_width = get_chart("torus").half_width
        cells = [None, (0.3,), (0.45,)]
        results = [scan_chart(FlakyTorus("flaky", 2, half_width), None, cells,
                              20_000, SEED, threads=threads)
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
                           20_000, SEED)
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
    ``ChartModel.build``; the scan must call them as it does: the mask
    once per chunk, on its samples with 0 < area <= 1, and the batch build
    once per batch of cone samples."""

    @pytest.mark.parametrize("chart, cells", [
        ("torus", [None, (0.3,)]),
        ("h2-octagon", [None, (0.6,), (0.6, 1.0)]),
    ])
    def test_one_build_per_cone_sample_one_mask_per_chunk(self, chart, cells,
                                                         chunk_size, monkeypatch):
        chunk_size(8192)
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
        res = scan_chart(chart, None, cells, 20_000, SEED)
        # every cone sample is built once; the three chunks hold fewer than
        # 8192 cone samples, so they make one batch.  Only a row that the
        # batch rejects is built alone (none here)
        assert len(batches) == 1
        assert sum(batches) == res.estimates[0].accepted > 0
        assert builds == [] and res.build_failures == 0
        assert len(masks) == 3
        # the mask sees only the samples with 0 < area <= 1, at unit area
        assert sum(map(len, masks)) == res.area_at_most_one
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


def _assert_rows_are_tables(batch, s, tables):
    """Surface ``s`` of ``batch`` owns the half-edges start[s]:start[s + 1],
    and its rows there are ``tables``: the neighbours offset by start[s],
    the corner vertices and the chart rows."""
    a, b = batch.start[s], batch.start[s + 1]
    assert (batch.surf[a:b] == s).all() and batch.dims[s] == tables.dim
    assert np.array_equal(batch.neighbor[a:b] - a, tables.neighbor)
    assert np.array_equal(batch.corner_vertex[a:b], tables.corner_vertex)
    assert np.array_equal(batch.coeffs[:, a:b].T, tables.coeffs)


def _assert_checked_rows_build_as_checked(x):
    """Every row the unit-area batch check accepts is built, in one batch,
    from the very vertices checked, bit for bit, into the surface that a
    checked build of that row alone gives: the row's slice of the batch is
    that build's edges and tables.  Checked builds of one triangulation
    share one read-only table."""
    positive, unit, admissible = sampling._unit_area_check(x)
    verts = symmetric_vertices(unit)[admissible]
    batch, built = symmetric_polygon_batch(unit[admissible])
    assert len(built) == len(verts) and len(batch) == int(built.sum())
    # the edge vectors, (x, y) pairs viewed as complex: bits and signed zeros kept
    edges = np.ascontiguousarray(batch.edge.T).view(complex).reshape(-1, 3)
    shared = {}
    s = 0
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
        want = [[row[b] - row[a], row[c] - row[b], row[a] - row[c]]
                for a, b, c in tris]
        got = edges[batch.start[s] // 3:batch.start[s + 1] // 3]
        assert _bits(got) == _bits(want)

        X = surface_from_symmetric_polygon(sides)
        tables = X._tables
        assert shared.setdefault(tuple(map(tuple, tris)), tables) is tables
        assert not tables.neighbor.flags.writeable
        _assert_rows_are_tables(batch, s, tables)
        assert _bits([[X.edge(t, e) for e in range(3)]
                      for t in range(X.n_triangles)]) == _bits(want)
        s += 1
    assert s == len(batch)


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
            positive, unit, admissible = sampling._unit_area_check(x)
        assert positive == len(unit) == 4
        assert admissible.tolist() == [True, False, False, False]
        assert [get_chart("torus").admissible(z) for z in x] == [True] + [False] * 4
        assert unit[0].tolist() == [1, 1j]
        _assert_check_matches_all_rows(x)

    def test_unit_area_check_matches_admissible(self):
        chart = get_chart("h2-octagon")
        rng = sampling._chunk_generator(3, 0)
        x = sampling._sample_params(rng, 2000, chart.dim, 2.0)
        positive, unit, admissible = sampling._unit_area_check(x)
        areas = [chart.area(z) for z in x]
        assert positive == sum(a > 0 for a in areas)
        want = [chart.admissible(z) for z, a in zip(x, areas) if 0 < a <= 1]
        assert len(want) < positive
        assert admissible.tolist() == want
        unit_areas = [shoelace_area(symmetric_vertices(row))
                      for row in unit[admissible].tolist()]
        assert np.allclose(unit_areas, 1.0, rtol=1e-12)


def _assert_check_matches_all_rows(x):
    """``_unit_area_check`` gives the gate count, the unit-area sides and
    the admissible flags of the all-rows reference, bit for bit, and
    reports no overflow: inf and nan decide the gates of huge rows."""
    with np.errstate(all="ignore"):  # the reference overflows on huge rows
        want = all_rows_unit_area_check(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sampling._unit_area_check(x)
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape
    assert _bits(got[1]) == _bits(want[1])
    assert got[2].tolist() == want[2].tolist()


def _row_of_area(row, target):
    """``row`` times the scale whose shoelace area is exactly ``target``,
    found by stepping the scale one ulp at a time; None if no scale near
    sqrt(target / area) hits it."""
    t = math.sqrt(target / shoelace_area(symmetric_vertices(row)))
    for _ in range(64):
        area = shoelace_area(symmetric_vertices(row * t))
        if area == target:
            return row * t
        t = np.nextafter(t, math.inf if area < target else 0.0)
    return None


def _rows_at_unit_boundary(dim, seed):
    """Rows of shoelace area 1 - 1 ulp, 1 and 1 + 1 ulp, from box samples
    of positive area."""
    rng = sampling._chunk_generator(seed, 0)
    x = sampling._sample_params(rng, 64, dim, 2.0)
    x = x[shoelace_area(symmetric_vertices(x)) > 0]
    targets = (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))
    rows = [r for t in targets for r in map(_row_of_area, x, [t] * len(x))
            if r is not None]
    got = shoelace_area(symmetric_vertices(np.array(rows)))
    assert set(got.tolist()) == set(targets)
    return np.array(rows)


class TestClosedFormGates:
    """The closed-form area decides the gates of the rows far from area 0
    and 1; every gate, unit-area side and admissible flag is that of the
    check that takes the shoelace area of every row."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_unit_boundary(self, dim):
        x = _rows_at_unit_boundary(dim, seed=5)
        _assert_check_matches_all_rows(x)
        # 1 - 1 ulp and 1 are in the cone's area gate, 1 + 1 ulp is not
        area = shoelace_area(symmetric_vertices(x))
        assert len(sampling._unit_area_check(x)[1]) == (area <= 1.0).sum() > 0

    @pytest.mark.parametrize("x", [
        np.array([[1, 2], [0, 0], [1j, 2j], [0, 1]]),
        np.array([[1, 2, 3, 4], [1j, -1j, 2j, 0], [0, 0, 0, 0]]),
        np.array([[1j, 1], [2j, 0.5]]),
        np.array([[-1, -1 + 1j, 1j, 1 + 1j], [1, 1 - 1j, -1j, -1 - 1j]]),
        np.array([[1e200, 1e200j], [1e200j, 1e200], [1e200, 3e199j],
                  [0.5e200, 0.5e200j]]),
        np.array([[1e200, 1e200 + 1e200j, 1e200j, -1e200 + 1e200j],
                  [1e154, 1e154j, -1e154, 1e-154j],
                  [1e-160, 1e-160j, 1.0, 1j]]),
        # sum_i cross(z_1 + ... + z_i, z_(i+1)) is -5e-324 on both rows,
        # the shoelace area 5e-324 and 1e-323
        np.array([[-1.4855424892728158e-162 + 9.850959608164805e-163j,
                   -1.3092685376961296e-162 - 1.17687441992701e-162j,
                   8.873025849275767e-163 + 9.983593213631736e-163j,
                   -1.5125690252787263e-162 + 7.194706819175265e-163j],
                  [-1.3598055070986066e-162 + 1.1446288146317096e-162j,
                   -1.9822958163458614e-162 + 1.921660746419583e-162j,
                   1.0466676941406407e-162 - 2.126659143411238e-162j,
                   -6.191980583148651e-163 - 1.0452835342223527e-162j]]),
    ], ids=["zero-tori", "zero-octagons", "negative-tori", "negative-octagons",
            "huge-tori", "huge-octagons", "subnormal-octagons"])
    def test_degenerate_and_huge_rows(self, x):
        _assert_check_matches_all_rows(x.astype(complex))

    @PROPERTY
    @given(_sample_rows(2), st.sampled_from([1.0, 1e-160, 1e150, 1e200]))
    def test_tori(self, x, scale):
        _assert_check_matches_all_rows(x * scale)

    @PROPERTY
    @given(_sample_rows(4), st.sampled_from([1.0, 1e-160, 1e150, 1e200]))
    def test_octagons(self, x, scale):
        _assert_check_matches_all_rows(x * scale)

    @PROPERTY
    @given(_sample_rows(4), st.integers(-3, 3))
    def test_octagons_near_unit_area(self, x, ulps):
        """Rows rescaled to area about 1, then moved by a few ulps: the
        rows the closed form cannot decide."""
        area = shoelace_area(symmetric_vertices(x))
        x = x[area != 0] / np.sqrt(np.abs(area[area != 0]))[:, None]
        _assert_check_matches_all_rows(x * (1.0 + ulps * 2.0 ** -52))

    @PROPERTY
    @given(_sample_rows(2))
    def test_subspace_octagons(self, w):
        _assert_check_matches_all_rows(w @ SUBSPACE_BASIS.T)

    @pytest.mark.parametrize("name, seed", [("torus", 1), ("h2-octagon", 2)])
    def test_scan_chunk(self, name, seed):
        chart = get_chart(name)
        rng = sampling._chunk_generator(seed, 0)
        _assert_check_matches_all_rows(
            sampling._sample_params(rng, 16384, chart.dim, chart.half_width))


def _edge_thresholds_alone(X, W, k_max, s=0):
    """``sampling._edge_thresholds`` of surface ``s`` of the batch ``X``
    alone, one edge at a time: each edge's half-edge in the kept half plane
    (holonomy above the real axis, or within ``PAIR_EPS`` of it and
    pointing right), its length the ``hypot`` of that, the edges sorted by
    length stably, and E_i the length at which the SVD prefix rank of their
    classes on W (the scalar reference) first reaches i + 1, or inf."""
    a, b = int(X.start[s]), int(X.start[s + 1])
    ex, ey = X.edge[0].tolist(), X.edge[1].tolist()
    edges = []
    for h in range(a, b):
        g = int(X.neighbor[h])
        if h > g:
            continue
        x, y = ex[h], ey[h]
        tol = PAIR_EPS * float(np.hypot(x, y))
        if y < -tol or (abs(y) <= tol and x < 0):
            h = g
        edges.append((float(np.hypot(ex[h], ey[h])), h))
    edges.sort(key=lambda e: e[0])
    lengths = [m for m, _ in edges]
    classes = X.coeffs[:, [h for _, h in edges]].T.astype(complex)
    ranks = prefix_ranks(classes, W, k_max)
    return [lengths[ranks.index(i + 1)] if i + 1 in ranks else math.inf
            for i in range(k_max)]


def _is_delaunay_alone(X, s=0):
    """``SurfaceBatch.is_delaunay`` of surface ``s`` alone, from the scalar
    cots of ``tests/scalar_delaunay.py``: no edge with cot(alpha) +
    cot(beta) < -1e-9, and no cot sum that is not a number."""
    a, b = int(X.start[s]), int(X.start[s + 1])
    nbr = (X.neighbor[a:b] - a).tolist()
    cot, _ = scores(X.edge[0, a:b].tolist(), X.edge[1, a:b].tolist(), nbr)
    return all(cot[h] + cot[g] <= DELAUNAY_TOL for h, g in enumerate(nbr))


def _reach_alone(X, W, k_max, grid, s=0):
    """The reach surface ``s`` of ``X`` gets in a scan with radii ``grid``
    (sorted): 0 when it is Delaunay with edges of rank cap on W, otherwise
    the largest radius below E_(cap - 1) rounded up by ``GUESS_SLACK``
    (0 for none), itself rounded up by twice the slack."""
    cap = min(k_max, W.dim)
    E = _edge_thresholds_alone(X, W, k_max, s)[cap - 1]
    if _is_delaunay_alone(X, s) and math.isfinite(E):
        return 0.0
    rho = max((r for r in grid if r < E * (1 + sampling.GUESS_SLACK)), default=0.0)
    return rho * (1 + 2 * sampling.GUESS_SLACK)


class TestBatchedScan:
    """Each worker gathers the cone samples of its chunks and unfolds them
    in batches of at least ``DEFAULT_CHUNK`` (but its last one); a surface's
    connections, ranks and nodes do not depend on its batch."""

    @pytest.mark.parametrize("chart, cells", [
        ("torus", [None, (0.3,), (0.45,)]),
        ("h2-octagon", [None, (0.6,), (0.6, 1.0)]),
    ])
    def test_unfolding_nodes(self, chart, cells, chunk_size, monkeypatch):
        def one_round():  # leaves some octagons not Delaunay
            monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", 1)

        one_round()
        chunk_size(8192)
        rows, calls, unfolded = [], [], []
        build_batch, unfold = ChartModel.build_batch, sampling.unfold_surfaces

        def noting_build_batch(self, sides):
            calls.append(len(sides))
            rows.extend(sides.tolist())
            return build_batch(self, sides)

        def noting_unfold(surfaces, *args, **kwargs):
            unfolded.append(len(surfaces))
            return unfold(surfaces, *args, **kwargs)

        monkeypatch.setattr(ChartModel, "build_batch", noting_build_batch)
        monkeypatch.setattr(sampling, "unfold_surfaces", noting_unfold)
        res = scan_chart(chart, None, cells, 20_000, SEED)
        monkeypatch.undo()
        # three chunks, with fewer than 8192 cone samples: one batch, with
        # one search where some surface is not Delaunay (no torus)
        assert len(calls) == 1
        assert sum(calls) == len(rows) == res.estimates[0].accepted
        assert unfolded == ([] if chart == "torus" else calls)
        one_round()
        chunk_size(8192)
        two = scan_chart(chart, None, cells, 20_000, SEED, threads=2)
        assert two == res
        # each surface alone: none searched where it is Delaunay, the rest
        # to the largest radius below E_(cap - 1); the tori (built on their
        # reduced bases) as built, the octagons retriangulated
        radii = [c for c in cells if c is not None]
        grid = sorted({r for c in radii for r in c})
        model = get_chart(chart)
        W = LinearSubspace(model.dim)
        k_max = max(map(len, radii))
        alone = searched = 0
        for z in rows:
            X = SurfaceBatch.of([model.build(z)])
            if chart != "torus":
                X = X.delaunay()
            reach = _reach_alone(X, W, k_max, grid)
            searched += reach > 0
            alone += int(unfold_surfaces(X, max(reach, sampling._FLOAT_TINY)).nodes[0])
        assert res.unfolding_nodes == alone
        # the reduced tori are all Delaunay, a few octagons are not
        assert (searched > 0) == (alone > 0) == (chart != "torus")

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
            dims=(4,) * len(sizes), nodes=np.zeros(len(sizes), np.int64))
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
        positive, unit, admissible = sampling._unit_area_check(x)
        batch, built = chart.build_batch(unit[admissible][:40])
        assert built.all()
        shared = {}
        for s, sides in enumerate(unit[admissible][:40].tolist()):
            X = chart.build(sides)
            Y = surface_from_symmetric_polygon(sides)
            assert X._tables is Y._tables
            _assert_rows_are_tables(batch, s, X._tables)
            # equal rows in the batch: one shared table
            key = X._tables.neighbor.tobytes() + X._tables.coeffs.tobytes()
            assert shared.setdefault(key, X._tables) is X._tables


def _cone_sides(seed, chunk, size):
    """The unit-area sides of the cone samples of one torus scan chunk."""
    chart = get_chart("torus")
    return sampling._process_chunk(chart, LinearSubspace(2), seed, chunk, size)[0]


def _canonical_rows(classes, length):
    """The classes of one surface up to sign (first nonzero entry > 0),
    sorted, with their lengths in the same order."""
    first = np.take_along_axis(classes, np.argmax(classes != 0, axis=1)[:, None], 1)
    classes = classes * np.where(first < 0, -1, 1)
    order = np.lexsort(classes.T[::-1])
    return classes[order], length[order]


class TestReducedTori:
    """The scan builds and unfolds each torus on its reduced basis B (u, v):
    the same torus, so the same connections.  ``SurfaceBatch.rebased(B)``
    rewrites each row c of the build as c @ B, its row in the chart's
    (u, v), so the unfolding gives the chart classes of the raw build."""

    @staticmethod
    def _exact_rebase(batch, basis):
        """Each surface's columns times its basis, in Python ints."""
        out = []
        for s in range(len(batch)):
            a, b = batch.start[s], batch.start[s + 1]
            cols = batch.coeffs[:, a:b].T.astype(object)
            out.append((cols @ basis[s].astype(object)).T)
        return np.concatenate(out, axis=1).tolist()

    @pytest.mark.parametrize("name", ["torus", "h2-octagon"])
    def test_rebased_rows_are_rows_times_basis(self, name):
        chart = get_chart(name)
        W = LinearSubspace(chart.dim)
        sides = sampling._process_chunk(chart, W, 17, 0, 4096)[0][:60]
        batch, built = chart.build_batch(sides)
        assert built.all()
        if name == "torus":
            basis = reduce_lattice_bases(sides)[1]
        else:
            basis = np.random.default_rng(3).integers(
                -50, 51, size=(len(batch), 4, 4))
        assert len(np.unique(basis.reshape(len(batch), -1), axis=0)) > 10
        got = batch.rebased(basis)
        assert got.coeffs.dtype == np.int64
        assert got.coeffs.tolist() == self._exact_rebase(batch, basis)
        assert got.coeff_max == int(np.abs(got.coeffs).max())
        for field in ("edge", "neighbor", "corner_vertex", "start", "surf",
                      "dims"):
            assert getattr(got, field) is getattr(batch, field)
        # the identity changes nothing
        eye = np.broadcast_to(np.eye(chart.dim, dtype=np.int64),
                              basis.shape)
        assert np.array_equal(batch.rebased(eye).coeffs, batch.coeffs)

    def test_each_surface_has_the_raw_connections(self):
        chart = get_chart("torus")
        raw = _cone_sides(41, 0, 10_000)
        reduced, basis = reduce_lattice_bases(raw)
        L = 0.45
        surfaces, built = chart.build_batch(raw)
        assert built.all()
        want = unfold_surfaces(surfaces, L)
        surfaces, built = chart.build_batch(reduced)
        assert built.all()
        got = unfold_surfaces(surfaces.rebased(basis), L)
        assert len(raw) == 2098
        assert got.classes.dtype == np.int64
        assert np.array_equal(got.offsets, want.offsets)
        for a, b in zip(want.offsets[:-1].tolist(), want.offsets[1:].tolist()):
            want_c, want_l = _canonical_rows(want.classes[a:b], want.length[a:b])
            got_c, got_l = _canonical_rows(got.classes[a:b], got.length[a:b])
            assert np.array_equal(got_c, want_c)
            assert np.allclose(got_l, want_l, rtol=1e-12, atol=0)
        # the long thin tori are what the reduction removes
        assert want.nodes.sum() > 5 * got.nodes.sum()
        assert want.nodes.max() > 5 * got.nodes.max()

    @pytest.mark.parametrize("rows", [None, np.array([[1.0, 0.0], [0.5, 1.0]])],
                             ids=["full", "sheared"])
    def test_scan_equals_raw_scan(self, rows, chunk_size, monkeypatch):
        """The whole scan on reduced tori counts what it counts on the raw
        bases, in every subspace, for any worker count."""
        chunk_size(8192)
        W = None if rows is None else real_subspace(rows)
        cells = [None, (0.15,), (0.3,), (0.45,), (0.3, 0.45), (0.45, 0.45)]
        got = scan_chart("torus", W, cells, 20_000, 3)
        two = scan_chart("torus", W, cells, 20_000, 3, threads=2)
        assert two == got
        calls = []

        def unreduced(sides):
            calls.append(len(sides))
            basis = np.zeros((len(sides), 2, 2), np.int64)
            basis[:, 0, 0] = basis[:, 1, 1] = 1
            return sides, basis

        monkeypatch.setattr(sampling, "reduce_lattice_bases", unreduced)
        want = scan_chart("torus", W, cells, 20_000, 3)
        assert calls and sum(calls) == want.admissible == got.admissible
        assert got.estimates == want.estimates
        assert any(e.accepted for e in got.estimates[1:])
        # a reduced torus is Delaunay, so read off its edges; the long thin
        # raw tori are not, and are searched
        assert got.unfolding_nodes == 0 < want.unfolding_nodes
        # searched too, the reduced tori expand over 5x fewer nodes
        monkeypatch.setattr(SurfaceBatch, "is_delaunay",
                            lambda batch: np.zeros(len(batch), bool))
        raw = scan_chart("torus", W, cells, 20_000, 3)
        monkeypatch.setattr(sampling, "reduce_lattice_bases", reduce_lattice_bases)
        built = scan_chart("torus", W, cells, 20_000, 3)
        assert raw.estimates == built.estimates == got.estimates
        assert 0 < 5 * built.unfolding_nodes < raw.unfolding_nodes

    @pytest.mark.parametrize("rows", [[[1.0], [1.0]], [[1.0], [-2.0]]])
    def test_chunks_without_connections(self, rows, chunk_size):
        # a real line of C^2 holds only degenerate tori, so no chunk has a
        # cone sample, a surface or a connection
        chunk_size(500)
        with pytest.warns(RuntimeWarning, match="admissibility rejection"):
            res = scan_chart("torus", real_subspace(np.array(rows)),
                             [None, (0.3,), (0.3, 0.45)], 2000, 1)
        assert [e.accepted for e in res.estimates] == [0, 0, 0]
        assert res.unfolding_nodes == 0

    def test_rebased_stays_in_int64(self):
        """D coeff_max max|B| bounds every entry and partial sum: at
        2**63 - 2 the rows are exact, at 2**63 ``rebased`` raises."""
        batch, built = get_chart("torus").build_batch(np.array([[1, 1j]]))
        assert built.all() and batch.coeff_max == 1
        # the diagonal's row is +-(1, -1), which reaches 2 max|B|
        assert (batch.coeffs[0] == -batch.coeffs[1]).sum() == 2
        basis = np.array([[[2**62 - 1, 0], [1 - 2**62, 1]]], dtype=np.int64)
        got = batch.rebased(basis)
        assert got.coeffs.tolist() == self._exact_rebase(batch, basis)
        assert got.coeff_max == 2**63 - 2
        for big in (2**62, -2**62, -2**63):
            basis[0, 0, 0] = big
            with pytest.raises(ValueError, match="beyond int64"):
                batch.rebased(basis)
        with pytest.raises(ValueError, match="basis per surface"):
            batch.rebased(basis[:, :1])

    def test_unfolding_guard_on_rebased_batch(self):
        """The unfolding's int64 guard reads the rebased rows: past
        coeff_max (budget + 2) < 2**63 it refuses to start, naming
        budget + 2; just below it the classes are the raw ones times B."""
        chart = get_chart("torus")
        batch, built = chart.build_batch(np.array([[1, 1j], [1, 0.5 + 1j]]))
        assert built.all()
        basis = np.array([[[2**40, 0], [0, 1]], [[1, 0], [3, 1]]], np.int64)
        rebased = batch.rebased(basis)
        assert rebased.coeff_max == 2**40
        budget = 2**23 - 2
        with pytest.raises(ValueError) as err:
            unfold_surfaces(rebased, 1.5, budget=budget)
        assert str(budget + 2) in str(err.value)
        got = unfold_surfaces(rebased, 1.5, budget=budget - 1)
        want = unfold_surfaces(batch, 1.5)
        assert np.array_equal(got.offsets, want.offsets)
        surf = np.repeat(np.arange(2), np.diff(want.offsets))
        assert got.classes.tolist() == [
            (np.array(c, dtype=object) @ basis[s].astype(object)).tolist()
            for c, s in zip(want.classes.tolist(), surf.tolist())]


def _cone_batch(case, seed=1):
    """The chart, subspace, cells and cone samples of a ``TestCertificate``
    case's scan, all chunks in one batch."""
    chart, rows, samples, cells = TestCertificate.CASES[case]
    model = get_chart(chart)
    W = LinearSubspace(model.dim) if rows is None else real_subspace(rows)
    chunk = sampling.DEFAULT_CHUNK
    sides = np.concatenate([
        sampling._process_chunk(model, W, seed, c, min(chunk, samples - c * chunk))[0]
        for c in range(-(-samples // chunk))])
    return model, W, [c for c in cells if c is not None], sides


def _count(model, W, sides, cells):
    """``sampling._count_cone_batch`` of the cone samples ``sides`` for
    ``cells``: the accepted counts and the chain nodes."""
    k_max = max(map(len, cells))
    radii = np.full((len(cells), k_max), np.inf)
    for row, e in enumerate(cells):
        radii[row, :len(e)] = sorted(e)
    _, nodes, *counts = sampling._count_cone_batch(model, W, sides, radii,
                                                   DEFAULT_BUDGET).tolist()
    return counts, nodes


def _without_certificate(monkeypatch):
    """No surface Delaunay and no edge threshold, so every surface searched
    to the largest radius: the reference the edge pass must not change."""
    monkeypatch.setattr(sampling, "_edge_pass", lambda surfaces, subspace, k_max: (
        np.full((len(surfaces), k_max), np.inf), np.zeros(len(surfaces), bool)))


def _edge_bound(surfaces, W, k_max):
    """g_s = E_(cap - 1) (1 + GUESS_SLACK) of every surface, the bound
    below which a surface that is not Delaunay is searched, and which
    surfaces are Delaunay with edges of rank cap (not searched)."""
    E, exact = sampling._edge_pass(surfaces, W, k_max)
    cap = min(k_max, W.dim)
    return E[:, cap - 1] * (1 + sampling.GUESS_SLACK), exact


class TestCertificate:
    """The edge pass: the greedy pass over each surface's edges gives
    thresholds E_i >= R_i, equal on a Delaunay surface, which is then not
    searched; any other surface is searched only to the largest radius
    below g_s = E_(cap - 1) (1 + GUESS_SLACK).  The counts are those of the
    search to the largest radius."""

    CASES = {  # chart, subspace rows, samples, cells: rank 1 and rank 2
        "torus": ("torus", None, 20_000, [None, (0.15,), (0.3,), (0.45,)]),
        "octagon": GOLDEN_CASES["octagon"],
        "octagon-subspace": GOLDEN_CASES["octagon-subspace"],
    }
    # the nodes of the searches to the largest radius: GOLDEN_NODES as
    # recorded before the search stopped at each surface's own reach
    FULL_NODES = {"octagon": 37011, "octagon-subspace": 104105}

    def assert_equals_search_to_l_max(self, case, cells, monkeypatch):
        """The batch's counts for ``cells`` are those of the batch searched
        to the largest radius; returns the nodes of both."""
        model, W, _, sides = _cone_batch(case)
        got, nodes = _count(model, W, sides, cells)
        with monkeypatch.context() as m:
            _without_certificate(m)
            want, full = _count(model, W, sides, cells)
        assert got == want
        assert nodes <= full
        return nodes, full

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_search_to_l_max_changes_only_nodes(self, case, threads,
                                                monkeypatch):
        chart, rows, samples, cells = self.CASES[case]
        W = None if rows is None else real_subspace(rows)
        got = scan_chart(chart, W, cells, samples, 1, threads=threads)
        _without_certificate(monkeypatch)
        want = scan_chart(chart, W, cells, samples, 1, threads=threads)
        assert dataclasses.replace(
            got, unfolding_nodes=want.unfolding_nodes) == want
        assert got.unfolding_nodes < want.unfolding_nodes
        if case in self.FULL_NODES:
            assert want.unfolding_nodes == self.FULL_NODES[case]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_golden_certificates(self, case):
        """The theorem, as an independent route.  On the golden cone
        batches, with the rank-3 cell (0.3, 0.6, 0.9) added: every edge
        threshold is the one its surface gets alone, edge by edge with SVD
        ranks; the search's thresholds to the largest radius are at most
        the edge thresholds on every surface; and on every Delaunay
        surface they are equal, bit for bit, at or below the largest
        radius (and the search finds none beyond it)."""
        model, W, cells, sides = _cone_batch(case)
        cells = cells + [(0.3, 0.6, 0.9)]
        surfaces, _ = sampling._cone_surfaces(model, sides)
        k_max = 3
        cap = min(k_max, W.dim)
        l_max = max(c[-1] for c in cells)
        E, exact = sampling._edge_pass(surfaces, W, k_max)
        each = range(len(surfaces))
        assert E.tolist() == [_edge_thresholds_alone(surfaces, W, k_max, s)
                              for s in each]
        delaunay = np.array([_is_delaunay_alone(surfaces, s) for s in each])
        assert np.array_equal(surfaces.is_delaunay(), delaunay)
        # the edges span W: every Delaunay surface takes its edge thresholds
        assert np.isfinite(E[:, :cap]).all() and np.isinf(E[:, cap:]).all()
        assert np.array_equal(exact, delaunay)
        R = sampling._rank_thresholds(unfold_surfaces(surfaces, l_max), W, k_max)
        assert ((R <= E) | (np.isinf(R) & (E > l_max))).all()
        within = E[exact] <= l_max
        assert np.array_equal(R[exact][within], E[exact][within])
        assert np.isinf(R[exact][~within]).all()
        # thresholds on both sides of l_max, and both kinds of surface
        # where the charts have them
        assert within.any() and not within.all()
        assert exact.any()
        if case == "torus":
            assert exact.all()
        else:
            assert 0 < (~exact).sum() < 0.25 * len(surfaces)
            assert (R[~exact] < E[~exact]).any()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edge_stacks_ranked_as_by_svd(self, case, monkeypatch):
        """Every stack the edge pass ranks on the golden cone batches, with
        the rank-3 cell's k_max of 3, gets the SVD's ranks: exact minors on
        the full space, the SVD itself on the subspace."""
        model, W, _, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        stacks, rank = [], sampling.independence_rank

        def noting_rank(classes, sub):
            got = rank(classes, sub)
            stacks.append((classes, got))
            return got

        monkeypatch.setattr(sampling, "independence_rank", noting_rank)
        sampling._edge_pass(surfaces, W, 3)
        heights = set()
        for classes, got in stacks:
            assert classes.dtype == np.int64
            sv = np.linalg.svd(W.restrict_classes(classes), compute_uv=False)
            want = (sv > TAU_RANK * sv[..., :1]).sum(axis=-1)
            assert np.array_equal(got, want)
            heights.add(classes.shape[-2])
        assert heights == set(range(1, min(3, W.dim) + 1))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_radius_at_a_certificate_edge(self, case, monkeypatch):
        """Radii equal to edge thresholds E_(cap - 1), rounded up or not,
        and one float either side of them, of Delaunay surfaces and of
        others."""
        model, W, cells, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        k_max = max(map(len, cells))
        cap = min(k_max, W.dim)
        E, exact = sampling._edge_pass(surfaces, W, k_max)
        guess = np.sort(E[:, cap - 1])
        chosen = np.concatenate([
            guess[[len(guess) // 50, len(guess) // 10, len(guess) // 3]],
            E[~exact, cap - 1][:3]])
        radii = [r for g in chosen.tolist() for r in (
            g, math.nextafter(g, 0), math.nextafter(g, math.inf),
            g * (1 + sampling.GUESS_SLACK))]
        full = [(r,) * cap for r in radii]
        pairs = [(r, q) for r in radii for q in radii if r <= q]
        self.assert_equals_search_to_l_max(
            case, [(r,) for r in radii] + full + pairs[::3], monkeypatch)
        # each length alone: no radius just below it to widen the search
        for g in chosen.tolist():
            self.assert_equals_search_to_l_max(case, [(g,) * cap], monkeypatch)
        # R_(cap - 1) at an edge's length: the counts there and one float
        # below differ
        counts = _count(model, W, sides, full)[0]
        assert any(counts[i] != counts[i + 1] for i in range(0, len(full), 4))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_radii_within_twice_the_slack(self, case, monkeypatch):
        """Radii at the thresholds of the search to the largest radius and
        within a few ``GUESS_SLACK`` of them and of each other."""
        model, W, cells, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        k_max = max(map(len, cells))
        R = sampling._rank_thresholds(unfold_surfaces(surfaces, 1.0), W, k_max)
        finite = np.unique(R[np.isfinite(R)])
        bound = np.sort(_edge_bound(surfaces, W, k_max)[0])
        bound = bound[bound <= 1.0]
        slack = sampling.GUESS_SLACK
        radii = [r * (1 + d * slack) for r in finite[::max(1, finite.size // 4)]
                 for d in (-1, 0, 1, 2, 3)]
        # the largest radius below a bound g_s and one within twice the
        # slack above it, at or above g_s
        radii += [c * (1 + d * slack) for c in bound[::max(1, bound.size // 4)]
                  for d in (-2, -0.5, 0, 0.5)]
        radii.sort()
        ones = [(r,) for r in radii]
        pairs = [(r, q) for r, q in zip(radii, radii[1:])]
        self.assert_equals_search_to_l_max(case, ones + pairs, monkeypatch)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_radii_below_every_certificate(self, case, monkeypatch):
        model, W, cells, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        least = _edge_bound(surfaces, W, max(map(len, cells)))[0].min()
        radii = [least / 2, least * 0.9, math.nextafter(least, 0)]
        self.assert_equals_search_to_l_max(
            case, [(r,) for r in radii] + [(radii[0], radii[-1])], monkeypatch)

    @pytest.mark.parametrize("case", ["torus", "octagon"])
    def test_radii_above_every_certificate(self, case, monkeypatch):
        """With no radius below its bound g_s a surface is searched to the
        least normal float: no node, the counts of the full search."""
        model, W, cells, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        k_max = max(map(len, cells))
        cap = min(k_max, W.dim)
        most = _edge_bound(surfaces, W, k_max)[0].max()
        radii = [math.nextafter(most, math.inf), most * 1.1]
        cells = [(r,) * cap for r in radii]
        nodes, full = self.assert_equals_search_to_l_max(case, cells,
                                                         monkeypatch)
        assert nodes == 0 < full

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rank_three_cell(self, case, monkeypatch):
        """A rank-3 cell (cap 3 on the octagon, cap 2 on the rank-2
        charts) is certified too: the edges reach rank 3, and each surface
        that is not Delaunay is searched below its E_2, far less than to
        l_max."""
        cells = [(0.35,), (0.6, 0.6), (0.3, 0.6, 0.9), (0.6, 0.9, 0.9)]
        nodes, full = self.assert_equals_search_to_l_max(case, cells,
                                                         monkeypatch)
        assert nodes < full
        if case == "octagon":
            assert 10 * nodes < full

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_failed_check_searches_to_l_max(self, case, chunk_size,
                                            monkeypatch):
        """Edges whose classes fall short of rank cap (here the edge pass's
        every rank lowered by one) make no surface exact and bound no
        search: each batch is still one ``unfold_surfaces`` call, every
        surface in it searched to l_max, and the scan is the scan without
        the edge pass, nodes and all."""
        chunk_size(256)
        chart, rows, samples, _ = self.CASES[case]
        cells = [None, (0.35,), (0.35, 0.6), (0.6, 1.0)]
        W = None if rows is None else real_subspace(rows)
        with monkeypatch.context() as m:
            _without_certificate(m)
            want = scan_chart(chart, W, cells, samples, 1)
        edge_pass, rank = sampling._edge_pass, sampling.independence_rank
        checks = []

        def failing_edge_pass(*args):
            # only the edge pass's ranks fall short, not the search's
            with monkeypatch.context() as m:
                m.setattr(sampling, "independence_rank",
                          lambda classes, W: rank(classes, W) - 1)
                E, exact = edge_pass(*args)
            checks.append(len(E))
            assert np.isinf(E).all() and not exact.any()
            return E, exact

        monkeypatch.setattr(sampling, "_edge_pass", failing_edge_pass)
        batches, reaches = [], []
        count, unfold = sampling._count_cone_batch, sampling.unfold_surfaces

        def noting_count(*args):
            batches.append(len(args[2]))
            return count(*args)

        def noting_unfold(surfaces, reach, **kwargs):
            reaches.append(np.broadcast_to(reach, (len(surfaces),)).copy())
            return unfold(surfaces, reach, **kwargs)

        monkeypatch.setattr(sampling, "_count_cone_batch", noting_count)
        monkeypatch.setattr(sampling, "unfold_surfaces", noting_unfold)
        got = scan_chart(chart, W, cells, samples, 1)
        assert got == want
        assert len(reaches) == len(batches) == len(checks) > 1
        assert sum(checks) == sum(map(len, reaches))
        assert (np.concatenate(reaches) == 1.0 * (1 + 2 * sampling.GUESS_SLACK)).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_all_delaunay_batch_unfolds_nothing(self, case, monkeypatch):
        """A batch whose surfaces are all Delaunay, with edges of rank cap,
        takes no ``unfold_surfaces`` call; its counts are the search's."""
        model, W, cells, sides = _cone_batch(case)
        surfaces, _ = sampling._cone_surfaces(model, sides)
        exact = sampling._edge_pass(surfaces, W, max(map(len, cells)))[1]
        # the cone samples of the Delaunay surfaces (every row builds)
        sides = sides[exact]
        unfold, calls = sampling.unfold_surfaces, []
        monkeypatch.setattr(sampling, "unfold_surfaces",
                            lambda *a, **k: calls.append(1) or unfold(*a, **k))
        got, nodes = _count(model, W, sides, cells)
        assert not calls and nodes == 0
        monkeypatch.setattr(sampling, "unfold_surfaces", unfold)
        with monkeypatch.context() as m:
            _without_certificate(m)
            want, full = _count(model, W, sides, cells)
        assert got == want and full > 0


class TestCountConeBatch:
    """The back end counts each cone sample on its own, so one call on a
    batch gives what its pieces give, summed."""

    @pytest.mark.parametrize("name, chunks, cells", [
        ("torus", [0], [(0.15,), (0.3,), (0.45,), (0.3, 0.45)]),
        ("h2-octagon", [0, 1], [(0.35,), (0.6,), (1.0,), (0.6, 1.0), (0.35, 0.6)]),
    ])
    def test_any_split_sums_to_the_batch(self, name, chunks, cells,
                                         monkeypatch):
        chart = get_chart(name)
        W = LinearSubspace(chart.dim)
        sides = np.concatenate([sampling._process_chunk(chart, W, 11, c, 8192)[0]
                                for c in chunks])
        radii = np.full((len(cells), 2), np.inf)
        for row, e in enumerate(cells):
            radii[row, :len(e)] = e

        def count(part):
            return sampling._count_cone_batch(chart, W, part, radii,
                                              DEFAULT_BUDGET).tolist()

        # one retriangulation round leaves octagons that are not Delaunay,
        # so searched; the tori are Delaunay and never searched
        for rounds in (surface.DELAUNAY_ROUNDS, 1):
            monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", rounds)
            whole = count(sides)
            assert whole[2] > 0
            if name == "torus":
                assert whole[1] == 0
            elif rounds == 1:
                assert whole[1] > 0
            rng = np.random.default_rng(8)
            for pieces in (2, 3, 7):
                cuts = np.sort(rng.integers(1, len(sides), size=pieces - 1))
                parts = [count(p) for p in np.split(sides, cuts)]
                assert np.sum(parts, axis=0).tolist() == whole
            # one sample at a time, as a scan of one-sample batches would
            alone = [count(sides[i:i + 1]) for i in range(0, len(sides), 37)]
            assert np.sum(alone, axis=0).tolist() == count(sides[::37])
