"""Linear chart models: parameter boxes with surface builders.

Both built-in charts follow the same pattern: the parameters are the first
half of the sides of a centrally symmetric polygon with opposite sides
identified, so the chart parameters literally are the periods of a basis
of relative homology.  A chart's box is the square (-h, h) x (-h, h) on
the real and imaginary part of every coordinate, h = ``half_width``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import (
    SurfaceBatch,
    TranslationSurface,
    polygon_simple_mask,
    shoelace_area,
    surface_from_symmetric_polygon,
    symmetric_polygon_batch,
    symmetric_vertices,
)

DEFAULT_BOX_HALF_WIDTH = 2.0


@dataclass(frozen=True)
class ChartModel:
    """A period coordinate chart given by polygon side parameters.

    ``half_width`` is the h > 0 of the parameter box: every coordinate z_i
    ranges over |Re z_i| < h, |Im z_i| < h.  The builder is only
    guaranteed to succeed where ``admissible`` holds.

    The parameters z are the first sides of a centrally symmetric polygon,
    and the builders take the sides only: each is its own chart coordinate.
    ``polygon_vertices`` are the vertices (``symmetric_vertices``), and
    ``area`` and ``admissible`` test them with ``shoelace_area`` and
    ``polygon_simple_mask``, the routines that also check a whole batch.
    ``build`` builds one surface and checks that its polygon is simple and
    positively oriented.  ``build_batch`` builds many at once and checks
    nothing: ``scan_chart`` passes it only rows whose vertices its one
    batch simplicity mask and area test already passed, and builds a row
    that ``build_batch`` rejects with ``build`` on its own, which raises.
    """

    name: str
    dim: int
    half_width: float

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"chart {self.name!r}: a polygon needs at least "
                             f"2 side parameters, got dim {self.dim}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"chart {self.name!r}: half_width must be finite "
                             f"and positive, got {self.half_width}")

    def polygon_vertices(self, z) -> np.ndarray:
        return symmetric_vertices(z)

    def admissible(self, z) -> bool:
        verts = self.polygon_vertices(z)
        return bool(shoelace_area(verts) > 0 and polygon_simple_mask(verts)[0])

    def area(self, z) -> float:
        return float(shoelace_area(self.polygon_vertices(z)))

    def build(self, z) -> TranslationSurface:
        return surface_from_symmetric_polygon(z)

    def build_batch(self, sides) -> tuple[SurfaceBatch, np.ndarray]:
        """The surfaces of the rows of ``sides`` (batch, dim), whose polygons
        are known to be simple and positively oriented, and which rows
        built (see :func:`~flatscale.surface.symmetric_polygon_batch`)."""
        return symmetric_polygon_batch(sides)

    @property
    def box_volume(self) -> float:
        return square_box_volume(self.half_width, self.dim)


def square_box_volume(half_width: float, dim: int) -> float:
    """Volume of the box (-h, h)^2 in each of ``dim`` complex coordinates."""
    vol = 1.0
    for _ in range(dim):
        vol *= (2 * half_width) * (2 * half_width)
    return vol


def build_torus_chart(half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    """Tori with one marked point: parameters (u, v), lattice Zu + Zv.

    Admissible iff Im(conj(u) v) > 0; area equals Im(conj(u) v).  The scan
    builds and unfolds each sample on its Lagrange-Gauss reduced basis
    B (u, v) (``surface.reduce_lattice_bases``), the same torus with fewer
    chain nodes, and maps the classes back to (u, v) before the ranks;
    ``build`` builds the parallelogram of (u, v) as given.
    """
    return ChartModel("torus", 2, half_width)


def build_h2_octagon_chart(half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    """Octagons with opposite sides identified: one cone point of angle 6*pi.

    Parameters (z1, z2, z3, z4) are the first four side vectors; the surface
    lies in the stratum with a single zero of order 2.  Admissible iff the
    octagon is simple and positively oriented.
    """
    return ChartModel("h2-octagon", 4, half_width)


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
