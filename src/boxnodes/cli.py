"""Command line front end.

Subcommands mirror the library: trajectory tracking, amplitude sweeps with a
power-law fit, time-averaged node positions, mixing-angle heatmaps, and a
verify battery. Exit codes: 0 success, 1 a verify check failed, 2 invalid
arguments or state, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from .analysis import SweepSpec, amplitude_sweep, fit_power_law, heatmap, \
    time_avg_node_position
from .nodes import NodeKind, track_trajectory
from .output import write_columns
from .verify import run_verification
from .well import TwoStateSuperposition, WellConfig, beat_period

__all__ = ["build_parser", "main"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_KIND_BY_FLAG = {
    "analytic": NodeKind.ANALYTIC,
    "repart": NodeKind.REAL_PART_ZERO,
    "minimum": NodeKind.DENSITY_MINIMUM,
}


def _well(args: argparse.Namespace) -> WellConfig:
    return WellConfig(width_a=args.a, mass_m=args.mass, hbar=args.hbar)


def _trajectory(args: argparse.Namespace) -> int:
    well = _well(args)
    state = TwoStateSuperposition(args.c1, args.c2)
    t_end = args.t_end
    if t_end is None:
        T = beat_period(well)
        if not math.isfinite(T):
            raise ValueError(f"the beat period T = {T!r} is not finite for {well._label()}; "
                             "pass --t-end")
        t_end = args.t_start + T
        if t_end == args.t_start and math.isfinite(t_end):
            raise ValueError(f"t_end = t_start + T rounds to t_start = {args.t_start!r}: the "
                             f"beat period T = {T!r} for {well._label()} is below the "
                             f"float spacing there; pass --t-end")
    traj = track_trajectory(well, state, _KIND_BY_FLAG[args.kind], args.t_start, t_end,
                            args.time_samples)
    write_columns(args.out, {"t": traj.times, "position": traj.positions,
                             "kind": [traj.kind.value] * len(traj.times)})
    return 0


def _amplitude_sweep(args: argparse.Namespace) -> int:
    sweep = amplitude_sweep(_well(args), SweepSpec(a_min=args.a_min, a_max=args.a_max,
                                                   count=args.a_count))
    # asdict keeps the field order (coefficient, exponent, rms_log_residual),
    # which the fit trailer and sidecar follow
    write_columns(args.out, {"ratio": sweep.ratios, "amplitude": sweep.amplitudes},
                  metadata={"fit": dataclasses.asdict(fit_power_law(sweep))})
    return 0


def _avg_position(args: argparse.Namespace) -> int:
    well = _well(args)
    if args.a_count < 1:
        raise ValueError("need at least one ratio value")
    a_min, a_max = args.a_min, args.a_max
    if not (math.isfinite(a_min) and math.isfinite(a_max)):
        raise ValueError(f"a_min and a_max must be finite, got a_min={a_min!r}, "
                         f"a_max={a_max!r}")
    ratios = np.linspace(a_min, a_max, args.a_count)
    for A in ratios.tolist():
        if abs(A) >= 1.0:
            raise ValueError(f"|A| must be < 1 for a persistent node, got {A!r}")
    means = np.array([time_avg_node_position(well, A) for A in ratios.tolist()])
    # the mean is exact: --time-samples is only checked, after the ratios
    if args.time_samples < 2 or args.time_samples % 2:
        raise ValueError(f"--time-samples must be even and at least 2, "
                         f"got {args.time_samples}")
    write_columns(args.out, {"ratio": ratios, "mean_position": means})
    return 0


def _heatmap(args: argparse.Namespace) -> int:
    grid = heatmap(_well(args), args.grid, args.mix_count)
    # the average is exact: --time-samples is only checked, after the grid
    if args.time_samples < 2:
        raise ValueError("need at least two time samples")
    n_mix, n_x = grid.values.shape
    write_columns(args.out, {"theta": np.repeat(grid.mix_values, n_x),
                             "x": np.tile(grid.x_values, n_mix),
                             "avg_density": grid.values.ravel()})
    return 0


def _verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    results = run_verification(_well(args), seed=args.seed)
    for result in results:
        print(result.format_line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_well_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=1.0, help="well width (default 1)")
    parser.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    parser.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")


def _add_out_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True,
                        help="output file path: JSON when its suffix is .json, else CSV")


def _add_sweep_args(parser: argparse.ArgumentParser, a_max_default: float,
                    count_default: int) -> None:
    parser.add_argument("--a-min", type=float, default=0.05,
                        help="smallest ratio A (default 0.05)")
    parser.add_argument("--a-max", type=float, default=a_max_default,
                        help=f"largest ratio A (default {a_max_default})")
    parser.add_argument("--a-count", type=int, default=count_default,
                        help=f"number of A values (default {count_default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxnodes",
        description="Oscillating quasi-nodes of two-state superpositions in a box")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", help="track the node over a time window")
    _add_well_args(p)
    p.add_argument("--c1", type=float, default=_INV_SQRT2,
                   help="real coefficient on psi_1 (default 1/sqrt(2))")
    p.add_argument("--c2", type=float, default=_INV_SQRT2,
                   help="real coefficient on psi_2 (default 1/sqrt(2))")
    _add_out_args(p)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None,
                   help="end time (default: one beat period after t-start)")
    p.add_argument("--time-samples", type=int, default=256)
    p.add_argument("--kind", choices=sorted(_KIND_BY_FLAG), default="analytic")
    p.set_defaults(handler=_trajectory)

    p = sub.add_parser("amplitude-sweep",
                       help="oscillation amplitude vs log-spaced ratio A, with power-law fit")
    _add_well_args(p)
    _add_out_args(p)
    _add_sweep_args(p, a_max_default=1.0, count_default=64)
    p.set_defaults(handler=_amplitude_sweep)

    p = sub.add_parser("avg-position", help="time-averaged node position vs linearly spaced A")
    _add_well_args(p)
    _add_out_args(p)
    _add_sweep_args(p, a_max_default=0.95, count_default=19)
    p.add_argument("--time-samples", type=int, default=1024,
                   help="checked to be even and at least 2; the mean is exact")
    p.set_defaults(handler=_avg_position)

    p = sub.add_parser("heatmap",
                       help="time-averaged density over mixing angles in [0, pi/2]")
    _add_well_args(p)
    _add_out_args(p)
    p.add_argument("--grid", type=int, default=64, help="positions per row (default 64)")
    p.add_argument("--mix-count", type=int, default=64,
                   help="number of mixing angles (default 64)")
    p.add_argument("--time-samples", type=int, default=1024,
                   help="checked to be at least 2; the average is exact")
    p.set_defaults(handler=_heatmap)

    p = sub.add_parser("verify", help="run the invariant battery and report pass/fail")
    _add_well_args(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized checks (default 0)")
    p.set_defaults(handler=_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on its first call, reused after that.

    Building it costs about as much as a small job, and parse_args keeps no
    state between calls, so one parser serves every call in a process.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: a size numpy cannot allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
