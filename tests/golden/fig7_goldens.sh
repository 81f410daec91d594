#!/bin/sh
# Fig. 7 cycle-count golden: the only writer of
# tests/golden/fig7_cycle_error.json.
#
#   tests/golden/fig7_goldens.sh BENCH            rerun and cmp
#   tests/golden/fig7_goldens.sh --update BENCH   rewrite the golden
#
# BENCH is bench_fig7_cycle_error. Its quick table runs every timed
# precision and MIMO size on both the cycle-accurate model and the ISS, and
# its rtl_cycles, iss_cycles and instructions columns are exact counts, so
# any change to either timing model or to the MMSE programs changes the file.
set -eu

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update] BENCH" >&2
  exit 2
fi
bench=$1
golden=$(cd "$(dirname "$0")" && pwd)/fig7_cycle_error.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$bench" --json "$work" > "$work/run.log"
out="$work/fig7_cycle_error.json"
if [ ! -e "$out" ]; then
  echo "$bench wrote no fig7_cycle_error.json" >&2
  exit 1
fi
if [ "$update" -eq 1 ]; then
  cp "$out" "$golden"
  echo "wrote $golden"
elif cmp "$out" "$golden"; then
  echo "fig7_cycle_error: identical"
else
  echo "fig7_cycle_error: differs from $golden" >&2
  exit 1
fi
