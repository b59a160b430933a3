#!/usr/bin/env python3
"""Print the result of every public kernel on one seeded sample of inputs.

    PYTHONPATH=src python3 scripts/kernel_bits.py > kernel_bits.txt

Each line names a kernel and its inputs, then gives the result's type, an
array's shape and dtype, and the repr of each value: the shortest text that
reads back to the same float, so equal lines mean equal bits, the sign of
a zero included (NaN payloads aside). Where a kernel raises ValueError the
line gives its message. The kernels are eigenfunction (n = 1, 2, 3),
evaluate_psi, density_exact, density_closed_form, norm_integral,
time_avg_density, heatmap, the positions of track_trajectory for each node
kind and exact_zero_times. The inputs are:

* 54 wells, 50 seeded and four extremes the CLI accepts, each with
  positions on every branch of the position check and the wall mask, one
  complex state scaled by up to 10**+-100 and its two pure parts, a small
  heatmap, and the node tracks of a real state over one beat period;
* two wells with one complex state on (x, t) grids broadcast both ways;
* nine wells with 35 states at scales 1 and 1e+-153, whose node tracks
  reach |A| = 1 at t = 0, c1 = 0, c2 = 0 and an |A| whose square overflows, and
  their true-zero instants over two beat periods.

Only public boxnodes names are used, so scripts/gate_outputs.sh can run
this copy of the script against the src/ of the base commit and of the
change, and the byte gate then pins every kernel's bits.
"""
import math

import numpy as np

from boxnodes import (NodeKind, TwoStateSuperposition, WellConfig, beat_period,
                      density_closed_form, density_exact, eigenfunction, evaluate_psi,
                      exact_zero_times, heatmap, norm_integral, time_avg_density,
                      track_trajectory)

# seeded wells, and extremes the CLI accepts: a large dw with T near the bottom
# of the float range (--hbar 8e306, --a 1e-100 --mass 1e-100) and a subnormal
# dw (--a 1e155). The sample is drawn with Python's ** and math.exp, whose
# bits, unlike numpy's power and exp, do not depend on the CPU's SIMD features.
WELLS = [WellConfig(*(10.0 ** v for v in row)) for row in
         np.random.default_rng(25).uniform(-5, 5, size=(50, 3)).tolist()] + [
    WellConfig(hbar=8e306), WellConfig(1e-100, 1e-100), WellConfig(1e155),
    WellConfig(1.37, 0.6, 1.9)]


def edge_positions(a: float, rng: np.random.Generator) -> tuple[list, list]:
    """Positions that reach each branch of the position check and the wall
    mask: the walls as scalars, 0-d arrays and either end of an array,
    -0.0, NaN, all-NaN, empty, and 2-D arrays; and those arrays with NaN
    at every index."""
    inner = rng.uniform(0.0, a, 6)
    walls = inner.copy()
    walls[0], walls[-1] = 0.0, a
    positions = [0.0, -0.0, a, float(inner[0]), np.asarray(a), np.asarray(0.0),
                 np.asarray(float(inner[1])), math.nan, np.asarray(math.nan), inner, walls,
                 walls[::-1].copy(), np.array([-0.0, *inner[1:]]), np.array([]),
                 np.full(4, math.nan), np.empty((0, 3)), inner.reshape(2, 3),
                 walls.reshape(3, 2), np.full((2, 2), math.nan)]
    with_nan = []
    for i in range(len(walls)):
        for base in (inner, walls):
            with_nan.append(base.copy())
            with_nan[-1][i] = math.nan
    with_nan.append(with_nan[-1].reshape(2, 3))
    return positions, with_nan


def _text(result) -> str:
    if isinstance(result, np.ndarray):
        return f"{result.shape} {result.dtype}: " + " ".join(map(repr, result.ravel().tolist()))
    return f"{type(result).__name__}: {result!r}"


def _call(kernel, *args, **kwargs) -> str:
    try:
        return _text(kernel(*args, **kwargs))
    except ValueError as err:
        return f"ValueError: {err}"


def _line(label: str, kernel, *args) -> str:
    return f"{kernel.__name__} {label} {_call(kernel, *args)}"


def track_positions(cfg, state, kind, t_start, t_end, n):
    return track_trajectory(cfg, state, kind, t_start, t_end, n).positions


def well_lines(rng: np.random.Generator) -> list[str]:
    lines = []
    for i, cfg in enumerate(WELLS):
        xs, with_nan = edge_positions(cfg.width_a, rng)
        lines.append(f"w{i} {cfg!r}")
        for j, x in enumerate(xs + with_nan):
            lines += [_line(f"n={n} w{i} x{j}", eigenfunction, cfg, n, x) for n in (1, 2, 3)]
        c = rng.standard_normal(4) * 10.0 ** float(rng.uniform(-100.0, 100.0))
        states = [TwoStateSuperposition(complex(c[0], c[1]), complex(c[2], c[3])),
                  TwoStateSuperposition(0.0, c[2]), TwoStateSuperposition(c[0], 0.0)]
        T = beat_period(cfg)
        t = float(rng.uniform(0.0, 1.0)) * min(T, 1e300)  # T overflows for --a 1e155
        lines.append(f"w{i} {states[0]!r} t={t!r}")
        # the other kernels read the modes eigenfunction gives, so the NaN
        # at every index adds nothing for them
        for j, x in enumerate(xs):
            lines += [_line(f"w{i} x{j}", kernel, cfg, states[0], x, t)
                      for kernel in (evaluate_psi, density_exact, density_closed_form)]
            lines += [_line(f"w{i} x{j} s{k}", time_avg_density, cfg, state, x)
                      for k, state in enumerate(states)]
        lines.append(_line(f"w{i} [0, t]", norm_integral, cfg, states[0], np.array([0.0, t])))
        counts = rng.integers(8, 12, 2).tolist()
        grid = heatmap(cfg, *counts)
        lines += [f"heatmap w{i} {counts} {name} {_text(getattr(grid, name))}"
                  for name in ("x_values", "mix_values", "values")]
        lines += [_line(f"{kind.value} w{i} [0, T]", track_positions, cfg,
                        TwoStateSuperposition(c[0], c[2]), kind, 0.0, T, 9) for kind in NodeKind]
    return lines


def grid_lines(rng: np.random.Generator) -> list[str]:
    lines, state = [], TwoStateSuperposition(0.6 - 0.3j, -0.5 + 0.55j)
    for i, cfg in enumerate((WellConfig(), WellConfig(1.3, 0.7, 2.0))):
        a, ts = cfg.width_a, np.linspace(0.0, 2.0 * beat_period(cfg), 9)
        x = np.concatenate([[0.0, -0.0, a, math.nan], rng.uniform(0.0, a, 21)])
        lines.append(f"g{i} {cfg!r} {state!r} x={_text(x)}")
        # times along either axis, and with one position
        for j, (xx, t) in enumerate([(x, ts[:, None]), (x[:, None], ts), (0.3 * a, ts),
                                     (np.asarray(a), ts[:, None])]):
            lines += [_line(f"g{i} {j}", kernel, cfg, state, xx, t)
                      for kernel in (evaluate_psi, density_exact, density_closed_form)]
        lines.append(_line(f"g{i} ts", norm_integral, cfg, state, ts))
    return lines


def node_lines() -> list[str]:
    # nine wells, and real and complex states with c1 = 0, c2 = 0, an imaginary
    # c1, |A| = 1 and a tiny c2, for which |A|^2 overflows, at three scales each
    rng = np.random.default_rng(2525)
    cfgs = [WellConfig(*map(math.exp, rng.uniform(math.log(0.1), math.log(10.0), 3).tolist()))
            for _ in range(8)] + [WellConfig()]
    pairs = []
    for c in rng.standard_normal((12, 4)).tolist():
        pairs += [(c[0], c[1]), (complex(c[0], c[1]), complex(c[2], c[3]))]
    pairs += [(0.0, 1.0), (0.0, -0.7), (0.0j, 1.0 + 1.0j), (1.0, 0.0), (1.0j, 0.0),
              (1.0j, 1.0), (2.0, 1.0), (-2.0, 1.0), (1.0, 1e-160), (1.0, 1e-155),
              (1e-300, 1.0)]
    states = [TwoStateSuperposition(scale * c1, scale * c2) for c1, c2 in pairs
              for scale in (1.0, 1e153, 1e-153)]
    lines = [f"s{j} {state!r}" for j, state in enumerate(states)]
    for i, cfg in enumerate(cfgs):
        T = beat_period(cfg)
        # t = 0 and +-T/2 exactly, +-T/4 up to rounding, and four instants at
        # random phases
        windows = [(-0.5 * T, 0.5 * T, 5), (*sorted((rng.uniform(-2.0, 2.0, 2) * T).tolist()), 4)]
        lines.append(f"c{i} {cfg!r} {windows!r}")
        for j, state in enumerate(states):
            lines += [f"track_positions {kind.value} c{i} s{j} " + " ".join(
                _call(track_positions, cfg, state, kind, *window) for window in windows)
                for kind in NodeKind]
            zeros = _call(exact_zero_times, cfg, state, 2, samples_per_period=16)
            lines.append(f"exact_zero_times c{i} s{j} {zeros}")
    return lines


if __name__ == "__main__":
    rng = np.random.default_rng(32)
    print("\n".join(well_lines(rng) + grid_lines(rng) + node_lines()))
