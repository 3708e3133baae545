"""Enhanced level graphs and the plumbing exponent calculus.

Vertices carry (genus, level); vertical edges join distinct levels and
carry a positive enhancement b (cone angle 2*pi*b at the node, differential
orders b-1 on top and -b-1 below); horizontal edges join equal levels and
contribute simple poles on both sides.  Stratum zeros are half-edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .surface import StratumSignature


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class GraphVertex:
    genus: int
    level: int


@dataclass(frozen=True)
class GraphEdge:
    src: int
    dst: int
    kind: str            # "vertical" | "horizontal"
    b: int | None = None
    prong: int | None = None

    def __post_init__(self):
        if self.kind not in ("vertical", "horizontal"):
            raise GraphError(f"unknown edge kind {self.kind!r}")
        if self.kind == "vertical":
            if self.b is None or self.b < 1:
                raise GraphError("vertical edges need a positive enhancement b")
        elif self.b is not None:
            raise GraphError("horizontal edges carry no enhancement")


@dataclass(frozen=True)
class HalfEdge:
    vertex: int
    order: int


@dataclass(frozen=True)
class EnhancedLevelGraph:
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]
    half_edges: tuple[HalfEdge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(
            v if isinstance(v, GraphVertex) else GraphVertex(*v)
            for v in self.vertices))
        object.__setattr__(self, "edges", tuple(
            e if isinstance(e, GraphEdge) else GraphEdge(**e)
            for e in self.edges))
        object.__setattr__(self, "half_edges", tuple(
            h if isinstance(h, HalfEdge) else HalfEdge(*h)
            for h in self.half_edges))

    @property
    def depth(self) -> int:
        return -min(v.level for v in self.vertices)

    def top_level(self, e: GraphEdge) -> int:
        return max(self.vertices[e.src].level, self.vertices[e.dst].level)

    def bottom_level(self, e: GraphEdge) -> int:
        return min(self.vertices[e.src].level, self.vertices[e.dst].level)

    def upper_vertex(self, e: GraphEdge) -> int:
        return e.src if self.vertices[e.src].level >= self.vertices[e.dst].level \
            else e.dst

    def horizontal_edges(self) -> list[tuple[int, GraphEdge]]:
        return [(i, e) for i, e in enumerate(self.edges) if e.kind == "horizontal"]

    def vertical_edges(self) -> list[tuple[int, GraphEdge]]:
        return [(i, e) for i, e in enumerate(self.edges) if e.kind == "vertical"]

    def is_connected(self) -> bool:
        n = len(self.vertices)
        adj = {i: set() for i in range(n)}
        for e in self.edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    def total_genus(self) -> int:
        loops = len(self.edges) - len(self.vertices) + 1
        return sum(v.genus for v in self.vertices) + loops

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "vertices": [{"genus": v.genus, "level": v.level}
                         for v in self.vertices],
            "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind,
                       "b": e.b, "prong": e.prong} for e in self.edges],
            "half_edges": [{"vertex": h.vertex, "order": h.order}
                           for h in self.half_edges],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EnhancedLevelGraph":
        data = json.loads(text)
        return cls(
            tuple(GraphVertex(v["genus"], v["level"]) for v in data["vertices"]),
            tuple(GraphEdge(e["src"], e["dst"], e["kind"], e.get("b"),
                            e.get("prong")) for e in data["edges"]),
            tuple(HalfEdge(h["vertex"], h["order"]) for h in data["half_edges"]),
        )


@dataclass(frozen=True)
class GraphValidationReport:
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self):
        return "valid" if self.ok else "\n".join(self.errors)


def validate_graph(g: EnhancedLevelGraph,
                   sig: StratumSignature | None = None) -> GraphValidationReport:
    errors = []
    n = len(g.vertices)
    for e in g.edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            errors.append(f"edge {e} references a missing vertex")
            continue
        ls, ld = g.vertices[e.src].level, g.vertices[e.dst].level
        if e.kind == "horizontal" and ls != ld:
            errors.append(f"horizontal edge {e} joins distinct levels {ls},{ld}")
        if e.kind == "vertical" and ls == ld:
            errors.append(f"vertical edge {e} joins equal levels {ls}")
    for h in g.half_edges:
        if not (0 <= h.vertex < n):
            errors.append(f"half-edge {h} references a missing vertex")
    if errors:
        return GraphValidationReport(tuple(errors))

    levels = {v.level for v in g.vertices}
    depth = -min(levels)
    if levels != set(range(0, -depth - 1, -1)):
        errors.append(
            f"level function is not surjective onto 0..-{depth}: {sorted(levels)}")
    if not g.is_connected():
        errors.append("graph is not connected")

    if sig is not None:
        orders = sorted(h.order for h in g.half_edges)
        if orders != sorted(sig.zero_orders):
            errors.append(
                f"half-edge orders {orders} do not match stratum "
                f"{sorted(sig.zero_orders)}")

    # canonical divisor degree per vertex: 2g_v - 2 = sum of orders at v
    for i, v in enumerate(g.vertices):
        total = sum(h.order for h in g.half_edges if h.vertex == i)
        for e in g.edges:
            ends = [e.src, e.dst]
            if i not in ends:
                continue
            mult = ends.count(i)
            if e.kind == "horizontal":
                total += -1 * mult
            else:
                up = g.upper_vertex(e)
                if e.src == e.dst:
                    errors.append(f"vertical self-loop at vertex {i}")
                    continue
                total += (e.b - 1) if i == up else (-e.b - 1)
        if total != 2 * v.genus - 2:
            errors.append(
                f"vertex {i}: orders sum to {total}, expected 2g-2 = "
                f"{2 * v.genus - 2}")
    return GraphValidationReport(tuple(errors))


def compute_a(g: EnhancedLevelGraph) -> dict[int, int]:
    """Per level below 0, the lcm of enhancements of edges crossing it.

    An edge from level i to level j < i crosses level k when i > k >= j.
    """
    out = {}
    for k in range(-1, -g.depth - 1, -1):
        bs = [e.b for _, e in g.vertical_edges()
              if g.top_level(e) > k >= g.bottom_level(e)]
        if not bs:
            raise GraphError(f"no vertical edge crosses level {k}")
        out[k] = math.lcm(*bs)
    return out


def plumbing_T(g: EnhancedLevelGraph, edge_index: int, t: dict[int, complex],
               a: dict[int, int] | None = None) -> complex:
    """Gluing constant T = prod of t_k^(a_k / b) over the crossed levels."""
    e = g.edges[edge_index]
    if e.kind != "vertical":
        raise GraphError("plumbing exponents apply to vertical edges")
    if a is None:
        a = compute_a(g)
    i, j = g.top_level(e), g.bottom_level(e)
    out = 1.0 + 0.0j
    for k in range(j, i):
        exp, rem = divmod(a[k], e.b)
        if rem:
            raise GraphError(
                f"enhancement {e.b} does not divide a[{k}] = {a[k]}")
        out *= complex(t[k]) ** exp
    return out


def rescale_factor(level: int, t: dict[int, complex],
                   a: dict[int, int]) -> complex:
    """Scaling prefactor of the level: prod_{k=-1..level} t_k^(a_k)."""
    out = 1.0 + 0.0j
    for k in range(-1, level - 1, -1):
        out *= complex(t[k]) ** a[k]
    return out
