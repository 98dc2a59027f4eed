#!/usr/bin/env bash
# Each of the solver's four configurations through the `bepo` script on
# PATH, on a 9^3 grid: a run rebuilt from the config block of its
# manifest.json must write the same files as the run itself.
#
#   folded forward    a band solve, whose right-hand side is symmetric
#                     under the point reflection
#   unfolded forward  a solve of the crossing level a1 = 0.5, which is not
#   folded adjoint    a serviceability sweep with Monte Carlo off; the
#                     manifest's config block also carries sweep.values and
#                     mc.enabled
#   unfolded adjoint  a crossing sweep with force.const = 0.3, a model that
#                     is not odd under the point reflection
#
# Usage: rerun-from-manifest.sh DIR, with DIR a new or empty directory.
set -euo pipefail
dir=$1
mkdir -p "$dir"

# rerun NAME EXPERIMENT FILE...: runs the document on stdin, reruns it from
# its manifest and compares each FILE of the two output directories
rerun() {
  local name=$1 experiment=$2
  shift 2
  { printf '%s\n' 'grid.I = 9' 'grid.J = 9' 'grid.K = 9' 'grid.lambda = 0.01'; cat; } > "$dir/$name.cfg"
  bepo "$experiment" --config "$dir/$name.cfg" --out "$dir/$name-1"
  python -c 'import json, sys; print(json.load(open(sys.argv[1]))["config"], end="")' \
    "$dir/$name-1/manifest.json" > "$dir/$name-rerun.cfg"
  bepo "$experiment" --config "$dir/$name-rerun.cfg" --out "$dir/$name-2"
  for file in "$@"; do
    cmp "$dir/$name-1/$file" "$dir/$name-2/$file"
  done
}

printf '%s\n' 'observable.kind = band' | rerun band solve solution.csv summary.json
printf '%s\n' 'observable.a1 = 0.5' 'observable.eps0 = 1.75' |
  rerun level solve solution.csv summary.json
printf '%s\n' 'sweep.values = 0.25, 0.5, 1.5' 'mc.enabled = false' |
  rerun sweep serviceability-sweep serviceability_sweep.csv
printf '%s\n' 'force.const = 0.3' 'observable.eps0 = 1.75' 'sweep.values = -1.0, 0.0, 1.0' \
  'mc.enabled = false' | rerun offset crossing-sweep crossing_sweep.csv
echo "all four reruns wrote the same files"
