"""Peak finding on sampled profiles, for the heatmap tests.

The library's heatmap is exact; these helpers read its peak structure back
from the sampled rows, the way a plot of the figure would.
"""

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
