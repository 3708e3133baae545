"""Linear chart models: parameter boxes with surface builders.

Both built-in charts follow the same pattern: the parameters are the first
half of the sides of a centrally symmetric polygon with opposite sides
identified, so the chart parameters literally are the periods of a basis
of relative homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .surface import (
    CheckedSides,
    TranslationSurface,
    identity_rows,
    polygon_is_simple,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_vertices,
)

DEFAULT_BOX_HALF_WIDTH = 2.0


@dataclass(frozen=True)
class ChartModel:
    """A period coordinate chart given by polygon side parameters.

    ``param_box`` is a per-coordinate tuple (re_lo, re_hi, im_lo, im_hi).
    The builder is only guaranteed to succeed where ``admissible`` holds.

    ``build`` checks that the polygon is simple and positively oriented,
    except when given a :class:`~flatscale.surface.CheckedSides`.  Those
    are side vectors whose very vertices ``scan_chart`` already passed
    through its one batch simplicity mask and area test; checking each
    again would repeat that work and cost most of a build.  Any other
    input (a list, tuple or array) is checked.
    """

    name: str
    dim: int
    param_box: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if len(self.param_box) != self.dim:
            raise ValueError("param_box must give one box per coordinate")

    def side_vectors(self, z) -> list[complex]:
        return [complex(w) for w in z]

    def polygon_vertices(self, z) -> list[complex]:
        return symmetric_vertices(self.side_vectors(z))

    def admissible(self, z) -> bool:
        verts = self.polygon_vertices(z)
        try:
            return shoelace_area(verts) > 0 and polygon_is_simple(verts)
        except (ValueError, ZeroDivisionError):
            return False

    def area(self, z) -> float:
        return shoelace_area(self.polygon_vertices(z))

    def build(self, z) -> TranslationSurface:
        sides = z if isinstance(z, CheckedSides) else self.side_vectors(z)
        return surface_from_symmetric_polygon(sides, identity_rows(self.dim))

    @property
    def box_volume(self) -> float:
        vol = 1.0
        for (rl, rh, il, ih) in self.param_box:
            vol *= (rh - rl) * (ih - il)
        return vol


def _default_box(dim: int, half_width: float):
    b = (-half_width, half_width, -half_width, half_width)
    return tuple(b for _ in range(dim))


def build_torus_chart(half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    """Tori with one marked point: parameters (u, v), lattice Zu + Zv.

    Admissible iff Im(conj(u) v) > 0; area equals Im(conj(u) v).
    """
    return ChartModel("torus", 2, _default_box(2, half_width))


def build_h2_octagon_chart(half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    """Octagons with opposite sides identified: one cone point of angle 6*pi.

    Parameters (z1, z2, z3, z4) are the first four side vectors; the surface
    lies in the stratum with a single zero of order 2.  Admissible iff the
    octagon is simple and positively oriented.
    """
    return ChartModel("h2-octagon", 4, _default_box(4, half_width))


BUILTIN_CHARTS = {
    "torus": build_torus_chart,
    "h2-octagon": build_h2_octagon_chart,
}


def get_chart(name: str, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    try:
        factory = BUILTIN_CHARTS[name]
    except KeyError:
        raise KeyError(f"unknown chart {name!r}; "
                       f"available: {sorted(BUILTIN_CHARTS)}") from None
    return factory(half_width)
