#!/usr/bin/env bash
# Drive the unified scenario matrix end-to-end: build the bench, sweep the
# workload x topology grid, and post-process the CSV into plots (or text
# summaries when matplotlib is absent). With --smoke it also runs every
# --preset at CI scale and checks that each writes rows under the one CSV
# header plot_results.py reads.
#
# Usage: scripts/run_experiments.sh [--smoke] [--out DIR] [-- EXTRA_ARGS...]
#   --smoke       tiny grid plus every preset (~1 min); CI runs this
#   --out DIR     results directory (default: results/)
#   EXTRA_ARGS    forwarded verbatim to bench_scenario_matrix after `--`
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
OUT=results
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    --) shift; EXTRA=("$@"); break ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x build/bench/bench_scenario_matrix ]]; then
  echo "== build bench_scenario_matrix =="
  cmake --preset default
  cmake --build --preset default -j"$(nproc)" --target bench_scenario_matrix
fi

mkdir -p "$OUT"
CSV="$OUT/scenario_matrix.csv"
JSON="$OUT/scenario_matrix.json"

ARGS=(--csv="$CSV" --json="$JSON" --label=pr8-topology)
if [[ "$SMOKE" == 1 ]]; then
  ARGS+=(--smoke)
fi

echo "== run scenario matrix =="
./build/bench/bench_scenario_matrix "${ARGS[@]}" "${EXTRA[@]+"${EXTRA[@]}"}"

echo "== post-process =="
python3 scripts/plot_results.py "$CSV" --out "$OUT"

if [[ "$SMOKE" == 1 ]]; then
  echo "== every preset at smoke scale: one CSV header, rows in each =="
  for p in $(./build/bench/bench_scenario_matrix --preset=list); do
    [[ "$p" == matrix ]] && continue  # the sweep above
    ./build/bench/bench_scenario_matrix --preset="$p" --smoke \
      --csv="$OUT/preset_$p.csv" > "$OUT/preset_$p.txt"
  done
  python3 - "$CSV" "$OUT"/preset_*.csv <<'PY'
import csv
import sys
sys.path.insert(0, "scripts")
from plot_results import COLUMNS, load
for path in sys.argv[1:]:
    with open(path, newline="") as f:
        header = next(csv.reader(f))
    assert header == COLUMNS, "%s: header %s" % (path, header)
    assert load(path), "%s: no rows" % path
print("%d CSVs: one header, rows in each" % (len(sys.argv) - 1))
PY

  echo "== post-process hardening: malformed CSV inputs =="
  # A crash-interrupted sweep leaves a truncated tail (or nothing at all);
  # the post-processor must skip such rows with a warning and still exit 0.
  MANGLED="$OUT/scenario_matrix.mangled.csv"
  head -c "$(($(wc -c < "$CSV") - 17))" "$CSV" > "$MANGLED"
  printf 'map,torn-impl,lazy,not-a-number\n' >> "$MANGLED"
  python3 scripts/plot_results.py "$MANGLED" --out "$OUT/mangled"
  : > "$OUT/empty.csv"
  python3 scripts/plot_results.py "$OUT/empty.csv" --out "$OUT/mangled"
  rm -rf "$MANGLED" "$OUT/empty.csv" "$OUT/mangled"
fi

echo "== done: $CSV =="
