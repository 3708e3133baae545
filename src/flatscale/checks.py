"""The one rule for numeric arguments that come from outside the package.

A radius, a length or a box width is a real number: a Python or numpy
real, or a 0-d array of one, but not a bool (True is no radius), a string
or a complex number.  A count (a dimension, a budget, a grid size) is a
Python or numpy integer, but not a bool.  Each check raises a
``ValueError`` that names the argument; the caller checks the range,
except that ``radii`` checks its radii whole.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable

import numpy as np


class NotRealError(ValueError):
    """A value that is not a real number by the module's rule."""


def real(value, name: str) -> float:
    """``value`` as a float if it is a real number by the module's rule."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise NotRealError(f"{name} holds {value!r}, not a real number")
    return float(value)


def integer(value, name: str) -> int:
    """``value`` as an int if it is an integer by the module's rule."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def radii(value, name: str) -> tuple[float, ...]:
    """``value``, one radius (a string or 0-d array is one too) or a
    non-empty sequence of radii, as a tuple of floats in its order, each a
    finite positive real number."""
    if (isinstance(value, str) or not isinstance(value, Iterable)
            or getattr(value, "ndim", None) == 0):
        value = [value]
    out = tuple(real(v, name) for v in value)
    if not out:
        raise ValueError(f"{name} is empty")
    for v in out:
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} holds {v}; radii must be finite and positive")
    return out
