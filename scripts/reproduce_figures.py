#!/usr/bin/env python3
"""Regenerate every figure dataset as CSV (plus the fit sidecar).

Each dataset is produced through the CLI so the files match what a shell
invocation would give byte for byte. Plotting is left to the reader; every
file is a plain long-format table.
"""
import argparse
import sys
from pathlib import Path

from boxnodes.cli import main as cli

# Figure 3 overlays trajectories for a handful of mixing choices. The pairs
# below are (c1, c2) normalized, spanning small to large ratio A = c1/(2 c2).
FIG3_MIXES = [
    (0.3713906763541037, 0.9284766908852592),   # A = 0.2
    (0.7071067811865475, 0.7071067811865475),   # A = 0.5
    (0.8479983040050879, 0.5299989400031799),   # A = 0.8
    (0.8888888888888888, 0.4581228472908512),   # A ~ 0.97
]


def run(args):
    code = cli([str(a) for a in args])
    if code != 0:
        raise SystemExit(code)


def build(out_dir: Path) -> list[Path]:
    written = []

    def emit(name, argv):
        path = out_dir / name
        run([*argv, "--out", path])
        print(f"wrote {path}")
        written.append(path)

    emit("fig1_node_trajectory.csv",
         ["trajectory", "--time-samples", 512])

    emit("fig2_mean_position.csv",
         ["avg-position", "--a-max", 0.99, "--a-count", 99])

    for c1, c2 in FIG3_MIXES:
        ratio = c1 / (2.0 * c2)
        name = f"fig3_trajectory_A{ratio:.2f}.csv"
        emit(name, ["trajectory", "--c1", c1, "--c2", c2,
                    "--time-samples", 512])

    emit("fig4_amplitude_sweep.csv",
         ["amplitude-sweep", "--a-min", 0.05, "--a-max", 1.0,
          "--a-count", 64])
    # the same sweep again as JSON for the machine-readable fit sidecar
    emit("fig4_amplitude_sweep.json",
         ["amplitude-sweep", "--a-min", 0.05, "--a-max", 1.0,
          "--a-count", 64])
    written.append(out_dir / "fig4_amplitude_sweep.fit.json")

    emit("fig5_heatmap.csv",
         ["heatmap", "--grid", 64, "--mix-count", 64])

    return written


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"),
                        help="directory for the generated datasets")
    opts = parser.parse_args()

    files = build(opts.out_dir)
    missing = [p for p in files if not p.exists()]
    if missing:
        print(f"missing outputs: {missing}", file=sys.stderr)
        sys.exit(1)
    print(f"{len(files)} files in {opts.out_dir}")
