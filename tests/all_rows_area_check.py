"""Reference for ``sampling._unit_area_check``: the check that takes the
shoelace area of every sample's vertices before it keeps the samples with
0 < area <= 1.

``all_rows_unit_area_check`` is the check the scan ran before the closed
form from the sides decided the area gates of most samples; the tests
check that both return the same gates and unit-area sides, bit for bit.
"""

import numpy as np

from flatscale.surface import polygon_simple_mask, shoelace_area, symmetric_vertices


def all_rows_unit_area_check(x: np.ndarray):
    """(samples of positive area, unit-area sides of those with
    0 < area <= 1, which of those are admissible) for the rows of ``x``."""
    area = shoelace_area(symmetric_vertices(x))
    positive = area > 0
    small = positive & (area <= 1.0)
    unit = x[small] * (1.0 / np.sqrt(area[small]))[:, None]
    verts = symmetric_vertices(unit)
    with np.errstate(over="ignore", invalid="ignore"):
        admissible = polygon_simple_mask(verts) & (shoelace_area(verts) > 0)
    return int(positive.sum()), unit, admissible
