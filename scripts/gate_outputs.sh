#!/usr/bin/env bash
# Write every output the byte-identity gate compares.
#
#     bash scripts/gate_outputs.sh SOURCE_ROOT OUT_DIR
#
# SOURCE_ROOT is a checkout (or a git archive copy) whose src/ and
# scripts/reproduce_figures.py write the outputs; OUT_DIR receives them.
# Run it once on the base commit's tree and once on the change's, then
# compare the two OUT_DIRs with scripts/gate_compare.py. A verify that exits
# nonzero appends its exit code to its report instead of stopping the run.
set -eu
if [ "$#" -ne 2 ]; then
  echo "usage: $0 SOURCE_ROOT OUT_DIR" >&2
  exit 2
fi
mkdir -p "$2"
export PYTHONPATH="$1/src"
python3 "$1/scripts/reproduce_figures.py" --out-dir "$2/figs" > /dev/null
python3 -m boxnodes.cli verify > "$2/verify.txt" || echo "exit $?" >> "$2/verify.txt"
python3 -m boxnodes.cli verify --a 2 > "$2/verify_a2.txt" || echo "exit $?" >> "$2/verify_a2.txt"
# a second RNG stream on a third well
python3 -m boxnodes.cli verify --a 0.5 --seed 3 > "$2/verify_a05_s3.txt" \
  || echo "exit $?" >> "$2/verify_a05_s3.txt"
# non-unit wells scaled by powers of two, where the beat
# frequency formula must keep every bit
python3 -m boxnodes.cli verify --a 2 --mass 0.25 --hbar 8 > "$2/verify_pow2.txt" \
  || echo "exit $?" >> "$2/verify_pow2.txt"
# a width that is no power of two, where x / a and sqrt(2 / a)
# round, so the mode kernels must keep every bit
python3 -m boxnodes.cli verify --a 1.3 --seed 5 > "$2/verify_a13_s5.txt" \
  || echo "exit $?" >> "$2/verify_a13_s5.txt"
python3 -m boxnodes.cli heatmap --grid 64 --mix-count 64 --a 1.3 --out "$2/heatmap_a13.csv"
# a well where every step of the beat frequency formula rounds
python3 -m boxnodes.cli verify --a 1.37 --mass 0.6 --hbar 1.9 > "$2/verify_a137.txt" \
  || echo "exit $?" >> "$2/verify_a137.txt"
python3 -m boxnodes.cli trajectory --kind minimum --c1 0.6 --c2 0.8 --a 1.37 --mass 0.6 --hbar 1.9 \
  --out "$2/minimum_a137.csv"
# one more RNG stream through the checks that reuse one grid and
# its work arrays for every random state
python3 -m boxnodes.cli verify --a 0.8 --mass 1.6 --hbar 0.45 --seed 11 > "$2/verify_a08_s11.txt" \
  || echo "exit $?" >> "$2/verify_a08_s11.txt"
python3 -m boxnodes.cli trajectory --kind repart --c1 0.6 --c2 0.8 --a 0.5 --mass 4 --hbar 2 \
  --out "$2/repart_pow2.csv"
# the numeric node finders and a non-unit heatmap
python3 -m boxnodes.cli trajectory --kind repart --c1 0.6 --c2 0.8 --out "$2/repart.csv"
python3 -m boxnodes.cli trajectory --kind minimum --c1 0.6 --c2 0.8 --out "$2/minimum.json"
# A = 2: instants without a node are written as null
python3 -m boxnodes.cli trajectory --c1 2 --c2 0.5 --out "$2/gaps.json"
python3 -m boxnodes.cli heatmap --grid 16 --mix-count 9 --a 0.5 --out "$2/heatmap.csv"
# the CSV writer's empty-cell path and the JSON writer
python3 -m boxnodes.cli trajectory --c1 2 --c2 0.5 --out "$2/gaps.csv"
python3 -m boxnodes.cli trajectory --kind minimum --c1 2 --c2 0.5 --out "$2/minimum_gaps.csv"
python3 -m boxnodes.cli heatmap --grid 16 --mix-count 9 --a 0.5 --out "$2/heatmap.json"
# the direct JSON writer on a table whose array columns repeat
# values, and on list columns
python3 -m boxnodes.cli heatmap --grid 64 --mix-count 64 --out "$2/heatmap64.json"
python3 -m boxnodes.cli avg-position --out "$2/avg.json"
# the --out suffix alone picks the format: JSON in any case, CSV
# without a suffix
python3 -m boxnodes.cli avg-position --a-count 5 --out "$2/avg_upper.JSON"
python3 -m boxnodes.cli avg-position --a-count 5 --out "$2/avg_nosuffix"
# one more RNG stream through the checks that solve all their
# draws in one pass
python3 -m boxnodes.cli verify --a 3 --mass 0.2 --hbar 5 --seed 2 > "$2/verify_a3_s2.txt" \
  || echo "exit $?" >> "$2/verify_a3_s2.txt"
# a well where no constant is a power of two, on a further RNG
# stream through the grids that compute their factors when built
python3 -m boxnodes.cli verify --a 1.3 --mass 0.7 --hbar 2 --seed 7 > "$2/verify_a13_s7.txt" \
  || echo "exit $?" >> "$2/verify_a13_s7.txt"
# float-array columns straight from the library: a sweep and its
# fit sidecar on a non-unit well, the null positions of the repart
# kind, and signed ratios
python3 -m boxnodes.cli amplitude-sweep --a 1.37 --mass 0.6 --hbar 1.9 --out "$2/sweep_a137.json"
python3 -m boxnodes.cli trajectory --kind repart --c1 2 --c2 0.5 --out "$2/repart_gaps.json"
python3 -m boxnodes.cli avg-position --a-min=-0.5 --a-max 0.5 --a-count 5 --a 1.3 \
  --out "$2/avg_signed.csv"
# sweeps whose largest ratio is below 0.5, where the fit divides the
# ratios by a power of two and rescales k: on a non-unit well with its
# sidecar, and on subnormal ratios
python3 -m boxnodes.cli amplitude-sweep --a-min 0.001 --a-max 0.3 --a 1.37 --mass 0.6 --hbar 1.9 \
  --out "$2/sweep_small_a137.json"
python3 -m boxnodes.cli amplitude-sweep --a-min 1e-310 --a-max 1e-309 --out "$2/sweep_subnormal.csv"
