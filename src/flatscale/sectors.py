"""Multi-sectors: modulus and argument restrictions that pin log branches.

Horizontal node parameters are restricted to arcs of width pi/4; the level
scaling parameter t_i is restricted so that arg(t_i^(a_i)) stays in an arc
of width pi/4, i.e. t_i itself lives in an arc of width pi/(4 a_i).  Every
logarithm taken inside a sector uses the branch continuous on its arc;
principal branches are never used implicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .checks import real

TWO_PI = 2.0 * math.pi
TOL_CONTAINS = 1e-12  # angle slack of Arc.contains
TOL_LOG = 1e-9  # angle slack of Arc.log


class SectorBranchError(ValueError):
    """Argument left the sector arc: the log branch is ambiguous."""


@dataclass(frozen=True)
class Arc:
    """Open arc of directions (alpha, alpha + width)."""

    alpha: float
    width: float

    def __post_init__(self):
        if not 0 < self.width < TWO_PI:
            raise ValueError("arc width must lie in (0, 2*pi)")

    @property
    def center(self) -> float:
        return self.alpha + 0.5 * self.width

    def contains(self, z: complex) -> bool:
        if z == 0:
            return False
        d = (cmath.phase(z) - self.center) % TWO_PI
        if d > math.pi:
            d -= TWO_PI
        return abs(d) <= 0.5 * self.width + TOL_CONTAINS

    def scaled(self, m: int) -> "Arc":
        """Arc of z^m as z sweeps this arc (needs m*width < 2*pi)."""
        return Arc(self.alpha * m, self.width * m)

    def log(self, z: complex) -> complex:
        """Branch of log continuous on the arc; errors ``TOL_LOG`` off it."""
        if z == 0:
            raise ValueError("log of zero")
        d = (cmath.phase(z) - self.center) % TWO_PI
        if d > math.pi:
            d -= TWO_PI
        if abs(d) > 0.5 * self.width + TOL_LOG:
            raise SectorBranchError(
                f"arg {cmath.phase(z):.6f} outside arc "
                f"({self.alpha:.6f}, {self.alpha + self.width:.6f})")
        return complex(math.log(abs(z)), self.center + d)


@dataclass(frozen=True)
class MultiSector:
    """Sector data for one chart near the boundary.

    vertical_arcs maps level -> arc constraining arg t_level (width
    pi/(4 a_level), so at most pi/4); horizontal_arcs maps horizontal edge
    index -> arc of width pi/4 constraining the node parameter.  ``eps`` is
    a finite positive real number (``checks.real``); a ``ValueError`` says
    so otherwise, and for an arc wider than pi/4.
    """

    eps: float
    vertical_arcs: dict[int, Arc] = field(default_factory=dict)
    horizontal_arcs: dict[int, Arc] = field(default_factory=dict)

    def __post_init__(self):
        eps = real(self.eps, "eps")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("sector radius must be positive and finite")
        for arcs, kind in ((self.horizontal_arcs, "horizontal arcs have"),
                           (self.vertical_arcs, "vertical arcs have at most")):
            for arc in arcs.values():
                if arc.width > math.pi / 4 + 1e-12:
                    raise ValueError(f"{kind} width pi/4")

    @classmethod
    def standard(cls, a: dict[int, int], horizontal_edges=(),
                 eps: float = 0.3, base_angle: float = 0.0) -> "MultiSector":
        """Sector with arcs of maximal width starting at ``base_angle``."""
        va = {lvl: Arc(base_angle, math.pi / (4 * ai)) for lvl, ai in a.items()}
        ha = {i: Arc(base_angle, math.pi / 4) for i in horizontal_edges}
        return cls(eps, va, ha)

    def contains(self, t: dict[int, complex] | None = None,
                 t_h: dict[int, complex] | None = None) -> bool:
        for arcs, values in ((self.vertical_arcs, t), (self.horizontal_arcs, t_h)):
            for key, val in (values or {}).items():
                if not (0 < abs(val) < self.eps):
                    return False
                if key in arcs and not arcs[key].contains(val):
                    return False
        return True

    def log_horizontal(self, edge_index: int, value: complex) -> complex:
        return self.horizontal_arcs[edge_index].log(value)

    def log_T(self, graph, edge_index: int, t: dict[int, complex],
              a: dict[int, int]) -> complex:
        """log of the gluing constant T, continuous on the sector.

        T is a product of powers t_k^(a_k/b); its log is the matching sum
        of power logs, each taken on the scaled arc.
        """
        e = graph.edges[edge_index]
        i, j = graph.top_level(e), graph.bottom_level(e)
        out = 0j
        for k in range(j, i):
            m = a[k] // e.b
            if m == 0:
                continue
            arc_k = self.vertical_arcs[k]
            out += arc_k.scaled(m).log(complex(t[k]) ** m)
        return out
