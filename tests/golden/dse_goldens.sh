#!/bin/sh
# Quick DSE-front golden: the only writer of tests/golden/dse_quick.json.
#
#   tests/golden/dse_goldens.sh DSE_DRIVER            rerun and cmp
#   tests/golden/dse_goldens.sh --update DSE_DRIVER   rewrite the golden
#
# `dse_driver --quick --json` writes one row per design point (axes, worst
# slot latency, DUT and golden BER, reloads, the Pareto `front` marker).
# Every column but the two host-timed ones, sim_MIPS and wall_ms, is a
# deterministic function of the sweep, so those two are stripped and the
# rest is pinned byte-for-byte. The sweep must not depend on the host pool
# either: the check runs at --threads 1 and at --threads 3.
set -eu

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update] DSE_DRIVER" >&2
  exit 2
fi
driver=$1
golden=$(cd "$(dirname "$0")" && pwd)/dse_quick.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Runs the quick sweep at $1 host threads; prints the stripped rows' path.
sweep() {
  mkdir -p "$work/t$1"
  "$driver" --quick --threads "$1" --json "$work/t$1" > "$work/t$1.log"
  sed -e 's/"sim_MIPS": "[^"]*", //' -e 's/"wall_ms": "[^"]*", //' \
    "$work/t$1/dse_pareto.json" > "$work/t$1.json"
  if grep -q -e '"sim_MIPS"' -e '"wall_ms"' "$work/t$1.json"; then
    echo "--threads $1: a host-timed column was not stripped" >&2
    exit 1
  fi
  echo "$work/t$1.json"
}

one=$(sweep 1)
three=$(sweep 3)
if ! cmp "$one" "$three"; then
  echo "dse_quick: --threads 3 differs from --threads 1" >&2
  exit 1
fi
if [ "$update" -eq 1 ]; then
  cp "$one" "$golden"
  echo "wrote $golden"
elif cmp "$one" "$golden"; then
  echo "dse_quick: identical"
else
  echo "dse_quick: differs from $golden" >&2
  exit 1
fi
