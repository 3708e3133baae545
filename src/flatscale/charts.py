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

from .checks import integer, real
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
    ranges over |Re z_i| < h, |Im z_i| < h.  ``dim`` is an integer >= 2 and
    ``half_width`` a finite positive real number, not a bool or a string
    (``flatscale.checks``); a ``ValueError`` names either otherwise.  The
    builder is only guaranteed to succeed where ``admissible`` holds.

    The parameters z are the first sides of a centrally symmetric polygon,
    and the builders take the sides only: each is its own chart coordinate.
    ``polygon_vertices`` are the vertices (``symmetric_vertices``), and
    ``area`` and ``admissible`` test them with ``shoelace_area`` and
    ``polygon_simple_mask``, the routines that also check a whole batch.
    ``build`` builds one surface and checks that its polygon is simple and
    positively oriented.  ``build_batch`` builds many at once, as one
    ``SurfaceBatch`` whose per-surface half-edge rows the unfolding reads,
    and checks only their number of sides: ``polygon_vertices`` (so
    ``area`` and ``admissible``), ``build`` and ``build_batch`` take
    ``dim`` sides per polygon and raise a ``ValueError`` that names
    ``dim`` otherwise.  The single-polygon methods take one row ``z`` of
    shape (dim,), and ``build_batch`` a stack ``sides`` of shape
    (batch, dim); a ``ValueError`` names the argument and that shape
    otherwise.  ``scan_chart`` masks only the samples with
    0 < area <= 1, rescaled to unit area, one batch simplicity mask and
    area test per chunk; it passes ``build_batch`` only the rows that
    passed, gathered into batches of cone samples, and builds a row that
    ``build_batch`` rejects with ``build`` on its own, which raises.

    The built-in charts (``BUILTIN_CHARTS``, made by ``get_chart``):

    torus       dim 2: tori with one marked point, parameters (u, v),
                lattice Zu + Zv; admissible iff Im(conj(u) v), the area,
                is > 0.  The scan builds each sample on its Lagrange-Gauss
                reduced basis B (u, v) (``surface.reduce_lattice_bases``),
                the same torus with fewer chain nodes, and rebases its rows
                to (u, v) (``SurfaceBatch.rebased``) before the search.
                The reduced basis has 0 <= Re(conj(u) v) <= min(|u|,
                |v|)^2 / 2, so the ear clip cuts its parallelogram along
                the shorter diagonal into two triangles with no obtuse
                angle: the torus is Delaunay as built, and the scan does
                not retriangulate it.  ``build`` builds the parallelogram
                of (u, v) as given.
    h2-octagon  dim 4: octagons with opposite sides identified, one cone
                point of angle 6 pi: the stratum H(2).  Admissible iff the
                octagon is simple and positively oriented.
    """

    name: str
    dim: int
    half_width: float

    def __post_init__(self):
        integer(self.dim, "dim")
        real(self.half_width, "half_width")
        if self.dim < 2:
            raise ValueError(f"chart {self.name!r}: a polygon needs at least "
                             f"2 side parameters, got dim {self.dim}")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"chart {self.name!r}: half_width must be finite "
                             f"and positive, got {self.half_width}")

    def _sides(self, z, arg: str = "z", ndim: int = 1):
        """``z`` if it has ``ndim`` axes, the last of ``dim`` sides, else a
        ValueError that names ``arg``."""
        shape = np.shape(z)
        if len(shape) != ndim:
            want = f"({self.dim},)" if ndim == 1 else f"(batch, {self.dim})"
            raise ValueError(f"chart {self.name!r}: {arg} must have shape "
                             f"{want}, got shape {shape}")
        if shape[-1] != self.dim:
            raise ValueError(f"chart {self.name!r} has dim {self.dim}: each "
                             f"polygon needs {self.dim} sides, got shape "
                             f"{shape}")
        return z

    def polygon_vertices(self, z) -> np.ndarray:
        return symmetric_vertices(self._sides(z))

    def admissible(self, z) -> bool:
        # a row whose products overflow gives inf or nan, which fail every
        # strict test: the predicate is decided, so nothing is reported
        with np.errstate(over="ignore", invalid="ignore"):
            verts = self.polygon_vertices(z)
            return bool(shoelace_area(verts) > 0 and polygon_simple_mask(verts)[0])

    def area(self, z) -> float:
        return float(shoelace_area(self.polygon_vertices(z)))

    def build(self, z) -> TranslationSurface:
        return surface_from_symmetric_polygon(self._sides(z))

    def build_batch(self, sides) -> tuple[SurfaceBatch, np.ndarray]:
        """The surfaces of the rows of ``sides`` (batch, dim), whose polygons
        are known to be simple and positively oriented, and which rows
        built (see :func:`~flatscale.surface.symmetric_polygon_batch`)."""
        return symmetric_polygon_batch(self._sides(sides, "sides", 2))

    @property
    def box_volume(self) -> float:
        return square_box_volume(self.half_width, self.dim)


def square_box_volume(half_width: float, dim: int) -> float:
    """Volume of the box (-h, h)^2 in each of ``dim`` complex coordinates."""
    vol = 1.0
    for _ in range(dim):
        vol *= (2 * half_width) * (2 * half_width)
    return vol


BUILTIN_CHARTS = {"torus": 2, "h2-octagon": 4}  # name -> dim


def get_chart(name: str, half_width: float = DEFAULT_BOX_HALF_WIDTH) -> ChartModel:
    try:
        dim = BUILTIN_CHARTS[name]
    except KeyError:
        raise KeyError(f"unknown chart {name!r}; "
                       f"available: {sorted(BUILTIN_CHARTS)}") from None
    return ChartModel(name, dim, half_width)
