"""Composite Simpson quadrature on a uniform grid.

A deliberately plain implementation with a fixed summation order, so results
are reproducible bit for bit across runs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["composite_simpson"]


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule for samples on a uniform grid with spacing h.

    len(values) must be odd (an even number of intervals).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 3 or values.size % 2 == 0:
        raise ValueError("need an odd number of samples covering an even interval count")
    odd = values[1:-1:2].sum()
    even = values[2:-1:2].sum()
    return float((h / 3.0) * (values[0] + values[-1] + 4.0 * odd + 2.0 * even))
