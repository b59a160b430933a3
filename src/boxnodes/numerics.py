"""Small numerical kernels: Simpson quadrature and golden-section search.

These are deliberately plain implementations with fixed, documented tolerances
so results are reproducible bit for bit across runs. golden_min has no caller
in the package; it is the independent oracle the acceptance tests check the
closed-form node positions against.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["composite_simpson", "golden_min"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


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


def golden_min(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimization of a unimodal function on [lo, hi].

    Returns the abscissa of the minimum to within xtol.
    """
    if not hi > lo:
        raise ValueError("need lo < hi")
    x1 = lo + _INVPHI2 * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _INVPHI2 * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)
