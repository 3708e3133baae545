"""SurfaceBatch.delaunay: the retriangulation the scan unfolds.

The scalar rounds of ``scalar_delaunay`` are the reference for every array
of the result, bit for bit; the ear-clip surfaces are the independent
route for the connections, and the empty-disc property of a Delaunay
triangulation ties the systole to its shortest edge.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flatscale import sampling, surface
from flatscale.charts import get_chart
from flatscale.families import HorizontalCylinderFamily, PlumbingParams
from flatscale.homology import LinearSubspace, real_subspace
from flatscale.surface import (
    DELAUNAY_ROUNDS,
    SurfaceBatch,
    reduce_lattice_bases,
)
from flatscale.unfolding import unfold_surfaces

import scalar_delaunay
from scalar_delaunay import FLOOR, scalar_delaunay_batch, scores
from test_sampling import GOLDEN_CASES
from test_surface import octagon_surface, square_torus, torus
from test_unfolding import (
    assert_batch_is_concatenation,
    no_coordinates,
    regular_octagon,
    subspace_octagon,
    surfaces_for_batch,
)

GOLDEN_SEEDS = [(case, seed) for case in GOLDEN_CASES for seed in (1, 2)]


def cone_batch(case, seed, samples=None):
    """The batch of built surfaces that a scan of the golden case unfolds,
    before the retriangulation: every cone sample, the tori on their
    reduced bases with chart rows.  ``samples`` replaces the case's."""
    name, rows, golden_samples, _ = GOLDEN_CASES[case]
    samples = samples or golden_samples
    chart = get_chart(name)
    W = LinearSubspace(chart.dim) if rows is None else real_subspace(rows)
    size = sampling.DEFAULT_CHUNK
    sides = np.concatenate([
        sampling._process_chunk(chart, W, seed, c, min(size, samples - c * size))[0]
        for c in range(-(-samples // size))])
    basis = None
    if chart.dim == 2:
        sides, basis = reduce_lattice_bases(sides)
    batch, built = chart.build_batch(sides)
    assert built.all()
    return batch if basis is None else batch.rebased(basis)


@pytest.fixture(scope="module", params=GOLDEN_SEEDS, ids=lambda p: f"{p[0]}-{p[1]}")
def golden(request):
    batch = cone_batch(*request.param)
    return request.param[0], batch, batch.delaunay()


def surface_slices(batch):
    return [slice(int(a), int(b)) for a, b in zip(batch.start[:-1], batch.start[1:])]


def candidate_count(ex, ey, nbr):
    """The edges of one surface with cot(alpha) + cot(beta) < -TOL."""
    return len(scores(ex, ey, nbr)[1])


def assert_matches_scalar(batch, got, rounds=DELAUNAY_ROUNDS):
    """Every array of ``got`` is the scalar rounds' on each surface."""
    assert got.start.tolist() == batch.start.tolist()
    assert got.surf is batch.surf and got.dims == batch.dims
    assert got.coeff_max == int(np.abs(got.coeffs).max(initial=0))
    for s, (ex, ey, nbr, vert, rows, _) in enumerate(
            scalar_delaunay_batch(batch, rounds)):
        a, b = int(batch.start[s]), int(batch.start[s + 1])
        assert got.edge[0, a:b].tolist() == ex
        assert got.edge[1, a:b].tolist() == ey
        assert (got.neighbor[a:b] - a).tolist() == nbr
        assert got.corner_vertex[a:b].tolist() == vert
        assert got.coeffs[:, a:b].T.tolist() == rows


def mixed_surfaces():
    """Tori, octagons, a surface without rows and one with several cone
    points."""
    return [
        torus(0.3 + 0j, 2.9 + 0.4j), regular_octagon(), subspace_octagon(4),
        no_coordinates(octagon_surface()), square_torus(),
        HorizontalCylinderFamily().surface(PlumbingParams(t_h={0: 0.01, 1: 0.02})),
        octagon_surface([1, 3 + 0.2j, -2.5 + 1j, 0.1 + 1.2j])]


class TestScalarReference:
    def test_golden_cone_batches(self, golden):
        case, batch, got = golden
        assert_matches_scalar(batch, got)
        # the retriangulation did something on every chart
        assert not np.array_equal(got.edge, batch.edge)

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    def test_round_cap(self, rounds, monkeypatch):
        batch = cone_batch("octagon", 1)
        monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", rounds)
        got = batch.delaunay()
        assert_matches_scalar(batch, got, rounds)
        if not rounds:  # glued edges made exactly opposite, nothing else
            for name in ("neighbor", "corner_vertex", "coeffs"):
                assert np.array_equal(getattr(got, name), getattr(batch, name))
            lower = np.arange(batch.neighbor.size) < batch.neighbor
            assert np.array_equal(got.edge[:, lower], batch.edge[:, lower])
            assert np.allclose(got.edge, batch.edge, rtol=0, atol=1e-14)

    def test_input_is_kept(self):
        batch = cone_batch("octagon", 2)
        copies = {name: getattr(batch, name).copy()
                  for name in ("edge", "neighbor", "corner_vertex", "coeffs")}
        batch.delaunay()
        for name, a in copies.items():
            assert np.array_equal(getattr(batch, name), a)

    def test_mixed_batch_equals_batches_of_one(self):
        """Each surface is retriangulated on its own: tori, octagons, a
        surface without rows and one with several cone points."""
        surfaces = mixed_surfaces()
        batch = SurfaceBatch.of(surfaces)
        got = batch.delaunay()
        assert_matches_scalar(batch, got)
        for X, s in zip(surfaces, surface_slices(batch)):
            one = SurfaceBatch.of([X]).delaunay()
            a = s.start
            assert np.array_equal(got.edge[:, s], one.edge)
            assert np.array_equal(got.neighbor[s] - a, one.neighbor)
            assert np.array_equal(got.corner_vertex[s], one.corner_vertex)
            dim = X._tables.dim or 0
            assert np.array_equal(got.coeffs[:dim, s], one.coeffs)
        assert not np.array_equal(got.edge, batch.edge)

    def test_empty_batch(self):
        got = SurfaceBatch.of([]).delaunay()
        assert len(got) == 0 and got.edge.shape == (2, 0)
        assert got.coeff_max == 0


def assert_same_batch(got, want):
    """Every array of ``got`` is ``want``'s bit for bit, C-contiguous, and
    the dims are equal."""
    for name in ("edge", "neighbor", "corner_vertex", "coeffs", "start", "surf"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous, name
    assert got.dims == want.dims


class TestTake:
    """``SurfaceBatch.take`` is the batch that ``SurfaceBatch.of`` makes of
    the chosen surfaces, before and after the retriangulation."""

    # all in order; out of order with a repeat; none; only tori (rows of 2,
    # not 4); only a surface without rows; surfaces with and without rows
    SELECTIONS = [[0, 1, 2, 3, 4, 5, 6], [6, 3, 0, 4, 0, 2], [], [0, 4],
                  [3], [3, 0, 5]]

    @pytest.mark.parametrize("rows", SELECTIONS, ids=repr)
    def test_equals_batch_of_the_surfaces(self, rows):
        surfaces = mixed_surfaces()
        chosen = [surfaces[r] for r in rows]
        got = SurfaceBatch.of(surfaces).take(rows)
        assert_same_batch(got, SurfaceBatch.of(chosen))
        assert_batch_is_concatenation(
            unfold_surfaces(got, 1.5), [unfold_surfaces([X], 1.5) for X in chosen])

    @pytest.mark.parametrize("rows", SELECTIONS, ids=repr)
    def test_after_the_retriangulation(self, rows):
        """Each surface retriangulated in the batch is the surface
        retriangulated alone, and so is any selection of them."""
        surfaces = mixed_surfaces()
        got = SurfaceBatch.of(surfaces).delaunay().take(rows)
        chosen = [SurfaceBatch.of([surfaces[r]]).delaunay() for r in rows]
        for i, one in enumerate(chosen):
            assert_same_batch(got.take([i]), one)
        assert_same_batch(
            got, SurfaceBatch.of([surfaces[r] for r in rows]).delaunay())
        assert_batch_is_concatenation(
            unfold_surfaces(got, 1.5), [unfold_surfaces(X, 1.5) for X in chosen])


class TestInvariants:
    def test_triangles_and_gluings(self, golden):
        """Every triangle stays positively oriented; glued half-edges carry
        exactly opposite vectors and rows; each triangle's rows sum to 0;
        the corner vertices agree with the gluing."""
        _, batch, got = golden
        x, y = got.edge.reshape(2, -1, 3)
        assert (x[:, 0] * y[:, 1] - y[:, 0] * x[:, 1] > 0).all()
        nbr = got.neighbor
        h = np.arange(nbr.size)
        assert (nbr[nbr] == h).all() and (nbr != h).all()
        assert (got.surf[nbr] == got.surf).all()
        assert np.array_equal(got.edge[:, nbr], -got.edge)
        assert np.array_equal(got.coeffs[:, nbr], -got.coeffs)
        assert not got.coeffs.reshape(got.coeffs.shape[0], -1, 3).sum(axis=2).any()
        nxt = h + np.tile([1, 1, -2], h.size // 3)
        # the start of h is the end of its partner, the start of the next
        assert np.array_equal(got.corner_vertex, got.corner_vertex[nxt[nbr]])
        assert sorted(got.corner_vertex.tolist()) == sorted(
            batch.corner_vertex.tolist())

    def test_same_connections_as_the_ear_clip(self, golden):
        """Each surface has the ear clip's connections: the same class
        multiset exactly, the same zeros, holonomy to 1e-12 relative."""
        case, batch, got = golden
        L = max(c[-1] for c in GOLDEN_CASES[case][3] if c is not None)
        want, have = unfold_surfaces(batch, L), unfold_surfaces(got, L)
        assert np.array_equal(want.offsets, have.offsets)
        if case == "torus":  # a reduced torus is Delaunay as built
            assert np.array_equal(have.nodes, want.nodes)
        else:
            assert have.nodes.sum() < want.nodes.sum()
        for a, b in zip(want.offsets[:-1].tolist(), want.offsets[1:].tolist()):
            rows = []
            for u in (want, have):
                key = np.column_stack([u.classes[a:b], u.start_zero[a:b],
                                       u.end_zero[a:b]])
                order = np.lexsort(key.T[::-1])
                rows.append((key[order], u.holonomy[a:b][order]))
            assert np.array_equal(rows[0][0], rows[1][0])
            assert np.allclose(rows[1][1], rows[0][1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_reduced_tori_are_delaunay(self, seed):
        """The ear clip of a reduced basis cuts along v - u, the shorter
        diagonal, into two triangles with no obtuse angle: no golden cone
        torus has a candidate, so the scan skips their rounds."""
        batch = cone_batch("torus", seed)
        assert len(batch) > 4000
        for part in surface_slices(batch):
            ex, ey = batch.edge[0, part].tolist(), batch.edge[1, part].tolist()
            assert not candidate_count(ex, ey,
                                       (batch.neighbor[part] - part.start).tolist())

    def test_systole_is_the_shortest_edge(self, golden):
        """On a converged surface the shortest connection is an edge (the
        empty-disc argument), and the unfolding emits the edge vector
        itself: R_0 on the full space, and the first connection on any,
        is the shortest edge length exactly."""
        case, _, got = golden
        L = 1.5
        unfolded = unfold_surfaces(got, L)
        full = GOLDEN_CASES[case][1] is None
        dim = got.coeffs.shape[0]
        R0 = sampling._rank_thresholds(unfolded, LinearSubspace(dim), 1)[:, 0]
        converged = 0
        for s, part in enumerate(surface_slices(got)):
            ex, ey = got.edge[0, part].tolist(), got.edge[1, part].tolist()
            if candidate_count(ex, ey, (got.neighbor[part] - part.start).tolist()):
                continue
            converged += 1
            shortest = float(np.hypot(got.edge[0, part], got.edge[1, part]).min())
            assert shortest <= L
            first = unfolded.length[unfolded.offsets[s]]
            assert first == shortest
            if full:
                assert R0[s] == shortest
        assert converged > 0.75 * len(got)


def is_delaunay_alone(batch, part):
    """One surface: no edge with cot(alpha) + cot(beta) < -1e-9 by the
    scalar cots, and every cot sum a number."""
    nbr = (batch.neighbor[part] - part.start).tolist()
    cot, _ = scores(batch.edge[0, part].tolist(), batch.edge[1, part].tolist(), nbr)
    return all(cot[h] + cot[g] <= scalar_delaunay.TOL for h, g in enumerate(nbr))


class TestIsDelaunay:
    def test_golden_cone_batches(self, golden):
        """The predicate is the scalar one on every surface, before and after
        the retriangulation; the reduced tori are all Delaunay, and so are
        the retriangulated octagons of the full chart and all but a few of
        the subspace's, but few ear-clip octagons."""
        case, batch, got = golden
        for b in (batch, got):
            want = [is_delaunay_alone(b, part) for part in surface_slices(b)]
            assert b.is_delaunay().tolist() == want
        before, after = batch.is_delaunay().mean(), got.is_delaunay().mean()
        if case == "torus":
            assert before == after == 1
        elif case == "octagon":
            assert before < 0.5 and after == 1
        else:
            assert before < 0.5 and 0.99 < after < 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_octagon_scan_batches_converge(self, seed, monkeypatch):
        """The cone batches of a 30000-sample scan of the full octagon
        chart, the size a pass of perfbench's octagon-scan draws, are all
        Delaunay after the retriangulation, so the scan reads every
        threshold off the edges and unfolds nothing; at the former cap of
        8 rounds a few were left."""
        batch = cone_batch("octagon", seed, 30_000)
        assert len(batch) > 300
        assert batch.delaunay().is_delaunay().all()
        monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", 8)
        assert not batch.delaunay().is_delaunay().all()

    def test_no_candidate_left_is_delaunay(self):
        """A surface is Delaunay exactly when a round of the
        retriangulation finds no candidate on it."""
        batch = cone_batch("octagon", 1)
        for part in surface_slices(batch):
            ex, ey = batch.edge[0, part].tolist(), batch.edge[1, part].tolist()
            nbr = (batch.neighbor[part] - part.start).tolist()
            assert (candidate_count(ex, ey, nbr) == 0) == is_delaunay_alone(batch, part)

    def test_hand_made_surfaces(self):
        """Fat and square tori are Delaunay (the square's diagonal has cot
        sum 0), a long thin torus is not, nor a surface with a degenerate
        triangle, whose cot sums are not numbers."""
        thin = torus(1 + 0j, 5.2 + 0.3j)
        batch = SurfaceBatch.of([square_torus(), torus(1 + 0j, 0.4 + 0.9j), thin,
                                 regular_octagon()])
        assert batch.is_delaunay().tolist() == [True, True, False, True]
        flat = dataclasses.replace(batch, edge=np.zeros_like(batch.edge))
        assert not flat.is_delaunay().any()
        assert SurfaceBatch.of([]).is_delaunay().shape == (0,)


def two_cylinder_torus(xa, ha, xb, hb):
    """A torus of two stacked two-triangle cylinders of core c = 1, with
    crossing edges (xa, ha) and (xb, hb), rows in (c, pa, pb)."""
    c, pa, pb = 1 + 0j, complex(xa, ha), complex(xb, hb)
    tris = [[c, pa, -c - pa], [-c, -pa, c + pa], [c, pb, -c - pb],
            [-c, -pb, c + pb]]
    rows = [[(1, 0, 0), (0, 1, 0), (-1, -1, 0)], [(-1, 0, 0), (0, -1, 0), (1, 1, 0)],
            [(1, 0, 0), (0, 0, 1), (-1, 0, -1)], [(-1, 0, 0), (0, 0, -1), (1, 0, 1)]]
    glue = {(0, 1): (1, 1), (0, 2): (1, 2), (2, 1): (3, 1), (2, 2): (3, 2),
            (1, 0): (2, 0), (3, 0): (0, 0)}
    glue.update({b: a for a, b in list(glue.items())})
    return surface.TranslationSurface(tris, glue, rows)


class TestRowGuard:
    """A twist or flip whose rows would pass max(2**31, the largest |c|
    the surface came with) is skipped, so the retriangulation never makes
    the unfolding's int64 guard refuse a batch that it accepts."""

    @pytest.mark.parametrize("m, flips", [(2**30, True), (2**30 + 1, False)])
    def test_flip_at_the_floor(self, m, flips):
        """A long thin torus whose first flip makes a row entry 2 m: done
        at 2 m = 2**31, skipped one step above, and the second flip, 3 m,
        skipped in both."""
        batch, built = get_chart("torus").build_batch(np.array([[1, 2.6 + 0.45j]]))
        assert built.all()
        batch = batch.rebased(np.array([[[m, 0], [0, m]]], np.int64))
        got = batch.delaunay()
        assert_matches_scalar(batch, got)
        assert (not np.array_equal(got.edge, batch.edge)) == flips
        assert got.coeff_max == (2 * m if flips else m)
        assert got.coeff_max <= FLOOR
        # the flip still wanted is the one skipped
        assert candidate_count(*got.edge.tolist(), got.neighbor.tolist()) == 1

    @pytest.mark.parametrize("m, twists", [(2**30 - 1, True), (2**30 + 1, False)])
    def test_twist_at_the_floor(self, m, twists, monkeypatch):
        """Cylinder A has p = (2.3, 0.5) over c = 1, so k = 2 and its twist
        makes the row p - 2 c; with c's row scaled by m that reaches 2 m."""
        X = two_cylinder_torus(2.3, 0.5, -0.4, 0.6)
        batch = SurfaceBatch.of([X]).rebased(np.array([np.diag([m, 1, 1])]))
        for rounds in (1, DELAUNAY_ROUNDS):
            monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", rounds)
            got = batch.delaunay()
            assert_matches_scalar(batch, got, rounds)
            assert got.coeff_max <= FLOOR
            assert ([-2 * m, 1, 0] in got.coeffs.T.tolist()) == twists
        monkeypatch.setattr(surface, "DELAUNAY_ROUNDS", 1)
        if twists:  # round 1 twists and flips nothing on A
            got = batch.delaunay()
            assert got.edge[:, 1].tolist() == [2.3 - 2.0, 0.5]
            assert got.edge[:, 4].tolist() == [-(2.3 - 2.0), -0.5]

    def test_unfolding_guard_on_retriangulated_batch(self):
        """Rows up to 2**40, above the floor, stay within it: the unfolding
        takes the budget it took before the retriangulation, refuses the
        one it refused, and gives the raw classes times B."""
        chart = get_chart("torus")
        batch, built = chart.build_batch(np.array([[1, 2.6 + 0.45j],
                                                   [1, 0.5 + 1j]]))
        assert built.all()
        basis = np.array([[[1, 0], [0, 2**40]], [[1, 0], [3, 1]]], np.int64)
        rebased = batch.rebased(basis)
        got = rebased.delaunay()
        assert not np.array_equal(got.edge, rebased.edge)
        assert got.coeff_max <= rebased.coeff_max == 2**40
        budget = 2**23 - 2
        for b in (rebased, got):
            with pytest.raises(ValueError) as err:
                unfold_surfaces(b, 1.5, budget=budget)
            assert str(budget + 2) in str(err.value)
        have = unfold_surfaces(got, 1.5, budget=budget - 1)
        want = unfold_surfaces(batch, 1.5)
        assert np.array_equal(have.offsets, want.offsets)
        surf = np.repeat(np.arange(2), np.diff(want.offsets))
        raw = [tuple((np.array(c, dtype=object) @ basis[s].astype(object)).tolist())
               for c, s in zip(want.classes.tolist(), surf.tolist())]
        assert sorted(map(tuple, have.classes.tolist())) == sorted(raw)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.lists(surfaces_for_batch, min_size=1, max_size=6))
def test_random_batches_match_scalar(surfaces):
    """Random tori, star octagons, subspace octagons and surfaces without
    rows, in one batch: the batch rounds are the scalar rounds."""
    batch = SurfaceBatch.of(surfaces)
    assert_matches_scalar(batch, batch.delaunay())


def test_rounds_converge_without_the_cap():
    """Without the cap every golden octagon reaches a triangulation with
    no candidate left, so no twist and flip undo each other; the thin
    cylinders that flips shear one round at a time take longest."""
    batch = cone_batch("octagon", 2)
    ref = scalar_delaunay_batch(batch, 64)
    assert max(r[-1] for r in ref) < 64
    assert all(candidate_count(ex, ey, nbr) == 0 for ex, ey, nbr, *_ in ref)
