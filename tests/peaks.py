"""Extremum search for the tests.

The library's heatmap is exact; the peak helpers read its peak structure
back from the sampled rows, the way a plot of the figure would. golden_min
is the tests' one golden-section search, the numeric oracle for a minimum
the library finds in closed form.
"""

import math

import numpy as np


def local_max_positions(x_values, row) -> list[float]:
    """Positions of interior local maxima of a sampled profile.

    Assumes uniform x spacing. Isolated peaks are sharpened by a three-point
    parabolic fit; plateaus of equal values report their midpoint. Boundary
    samples never count as peaks.
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(row, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    h = x[1] - x[0]
    peaks: list[float] = []
    i = 1
    while i < y.size - 1:
        j = i
        while j + 1 < y.size and y[j + 1] == y[i]:
            j += 1
        if j < y.size - 1 and y[i] > y[i - 1] and y[j] > y[j + 1]:
            if i == j:
                denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
                off = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom != 0.0 else 0.0
                peaks.append(float(x[i] + off * h))
            else:
                peaks.append(float(0.5 * (x[i] + x[j])))
        i = j + 1
    return peaks


def peak_separation(x_values, row) -> float:
    """Distance between the outermost local maxima; 0.0 for a single peak."""
    peaks = local_max_positions(x_values, row)
    if len(peaks) < 2:
        return 0.0
    return max(peaks) - min(peaks)


def golden_min(f, lo, hi, steps: int):
    """The minimum of f in each bracket [lo, hi] by golden-section search,
    all brackets at once; f maps an array of points to their values. Each
    step shrinks every bracket by 1/phi: 40 steps by 4.4e-9, 45 by 3.9e-10."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(steps):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        left = f(c) < f(d)
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    return 0.5 * (lo + hi)
