import json

import pytest

from flatscale.levelgraph import (
    EnhancedLevelGraph,
    GraphEdge,
    GraphError,
    GraphVertex,
    HalfEdge,
    compute_a,
    plumbing_T,
    rescale_factor,
    validate_graph,
)
from flatscale.surface import StratumSignature


def h22_graph():
    # two vertices at levels 0 and -1 joined by one node of enhancement 1;
    # an order-2 zero on each side
    return EnhancedLevelGraph(
        vertices=(GraphVertex(2, 0), GraphVertex(1, -1)),
        edges=(GraphEdge(0, 1, "vertical", b=1, prong=0),),
        half_edges=(HalfEdge(0, 2), HalfEdge(1, 2)),
    )


def h31_graph(b=2):
    # top: genus 2 with a marked order-1 zero (the other order-1 zero sits
    # at the node); bottom: genus 1 with the order-3 zero and a pole of
    # order b+1 at the node
    return EnhancedLevelGraph(
        vertices=(GraphVertex(2, 0), GraphVertex(1, -1)),
        edges=(GraphEdge(0, 1, "vertical", b=b, prong=0),),
        half_edges=(HalfEdge(0, 1), HalfEdge(1, 3)),
    )


def three_level_graph():
    # levels 0, -1, -2; one edge per adjacent pair and one skipping edge
    return EnhancedLevelGraph(
        vertices=(GraphVertex(1, 0), GraphVertex(0, -1), GraphVertex(0, -2)),
        edges=(
            GraphEdge(0, 1, "vertical", b=1, prong=0),
            GraphEdge(1, 2, "vertical", b=1, prong=0),
            GraphEdge(0, 2, "vertical", b=1, prong=0),
        ),
        half_edges=(HalfEdge(0, 0), HalfEdge(2, 1), HalfEdge(2, 1)),
    )


def horizontal_graph():
    # two genus-1 pieces at level 0 joined by two horizontal nodes
    return EnhancedLevelGraph(
        vertices=(GraphVertex(1, 0), GraphVertex(1, 0)),
        edges=(GraphEdge(0, 1, "horizontal"), GraphEdge(0, 1, "horizontal")),
        half_edges=(HalfEdge(0, 2), HalfEdge(1, 2)),
    )


class TestValidation:
    def test_h22_valid(self):
        report = validate_graph(h22_graph(), StratumSignature((2, 2)))
        assert report.ok, str(report)

    def test_h31_valid(self):
        report = validate_graph(h31_graph(), StratumSignature((3, 1)))
        assert report.ok, str(report)
        assert h31_graph().total_genus() == 3

    def test_h31_with_b1_fails_degree(self):
        report = validate_graph(h31_graph(b=1), StratumSignature((3, 1)))
        assert not report.ok
        assert any("orders sum" in e for e in report.errors)

    def test_horizontal_h22(self):
        g = horizontal_graph()
        report = validate_graph(g, StratumSignature((2, 2)))
        assert report.ok, str(report)
        assert g.total_genus() == 3

    def test_horizontal_level_mismatch(self):
        g = EnhancedLevelGraph(
            vertices=(GraphVertex(1, 0), GraphVertex(1, -1)),
            edges=(GraphEdge(0, 1, "horizontal"),),
            half_edges=(),
        )
        assert not validate_graph(g).ok

    def test_level_surjectivity(self):
        g = EnhancedLevelGraph(
            vertices=(GraphVertex(2, 0), GraphVertex(1, -2)),
            edges=(GraphEdge(0, 1, "vertical", b=1),),
            half_edges=(HalfEdge(0, 2), HalfEdge(1, 2)),
        )
        report = validate_graph(g)
        assert any("surjective" in e for e in report.errors)


class TestExponents:
    def test_h31_a_is_two(self):
        assert compute_a(h31_graph()) == {-1: 2}

    def test_single_edge_b1(self):
        assert compute_a(h22_graph()) == {-1: 1}

    def test_lcm_of_crossing_edges(self):
        g = EnhancedLevelGraph(
            vertices=(GraphVertex(3, 0), GraphVertex(1, -1)),
            edges=(GraphEdge(0, 1, "vertical", b=2),
                   GraphEdge(0, 1, "vertical", b=3)),
            half_edges=(HalfEdge(0, 1), HalfEdge(0, 1), HalfEdge(1, 8)),
        )
        assert compute_a(g)[-1] == 6

    def test_three_level_a(self):
        assert compute_a(three_level_graph()) == {-1: 1, -2: 1}


class TestPlumbingT:
    def test_two_level_b1(self):
        g = h22_graph()
        T = plumbing_T(g, 0, {-1: 0.01})
        assert T == pytest.approx(0.01)

    def test_h31_T(self):
        g = h31_graph()
        T = plumbing_T(g, 0, {-1: 0.1j})
        assert T == pytest.approx(0.1j)  # exponent a/b = 1

    def test_modulus_bound(self):
        g = three_level_graph()
        a = compute_a(g)
        eps = 0.2
        t = {-1: 0.15 + 0.1j, -2: -0.05 + 0.18j}
        assert all(abs(v) < eps for v in t.values())
        for i, e in g.vertical_edges():
            T = plumbing_T(g, i, t, a)
            exp = sum(a[k] // e.b for k in
                      range(g.bottom_level(e), g.top_level(e)))
            assert abs(T) <= eps ** exp + 1e-15

    def test_non_integral_exponent_rejected(self):
        g = EnhancedLevelGraph(
            vertices=(GraphVertex(3, 0), GraphVertex(1, -1)),
            edges=(GraphEdge(0, 1, "vertical", b=2),
                   GraphEdge(0, 1, "vertical", b=3)),
            half_edges=(HalfEdge(0, 1), HalfEdge(0, 1), HalfEdge(1, 8)),
        )
        # a = 6; both exponents integral here, so force a bad case manually
        with pytest.raises(GraphError):
            plumbing_T(g, 0, {-1: 0.1}, a={-1: 3})


class TestRescale:
    def test_level_zero_is_one(self):
        assert rescale_factor(0, {}, {}) == 1

    def test_two_level(self):
        assert rescale_factor(-1, {-1: 0.1}, {-1: 2}) == pytest.approx(0.01)

    def test_three_level_product(self):
        t = {-1: 0.1, -2: 0.2}
        a = {-1: 1, -2: 3}
        assert rescale_factor(-2, t, a) == pytest.approx(0.1 * 0.2 ** 3)

    def test_telescoping(self):
        t = {-1: 0.1 + 0.02j, -2: 0.2 - 0.1j, -3: 0.05j}
        a = {-1: 2, -2: 3, -3: 1}
        for lvl in (-1, -2, -3):
            assert rescale_factor(lvl, t, a) == pytest.approx(
                rescale_factor(lvl + 1, t, a) * t[lvl] ** a[lvl])


class TestJson:
    def test_round_trip(self):
        g = three_level_graph()
        g2 = EnhancedLevelGraph.from_json(g.to_json())
        assert g2 == g
        assert json.loads(g2.to_json()) == json.loads(g.to_json())
