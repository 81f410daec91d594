#!/bin/sh
# Slot-table golden: the only writer of tests/golden/ran_slot_sim.json.
#
#   tests/golden/slot_goldens.sh RAN_SLOT_SIM            rerun and cmp
#   tests/golden/slot_goldens.sh --update RAN_SLOT_SIM   rewrite the golden
#
# `ran_slot_sim --ttis 2 --json` writes one row per TTI of the paper carrier
# (1638 subcarriers x 14 symbols, 4x4 64-QAM eMBB and 2x4 QPSK control UEs)
# detected by the 16bCDotp fp16 kernel on two tiny clusters: problems, bits,
# BER, simulated latency, throughput and reloads. Every column is a
# deterministic function of the run, and none may depend on the host pool,
# so the check runs at --threads 1 and at --threads 3 before the cmp.
set -eu

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update] RAN_SLOT_SIM" >&2
  exit 2
fi
sim=$1
golden=$(cd "$(dirname "$0")" && pwd)/ran_slot_sim.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Runs two TTIs at $1 host threads; prints the table's path. The tiny pool
# misses the deadline by design (exit 1); any other failure is an error.
slots() {
  mkdir -p "$work/t$1"
  ret=0
  "$sim" --ttis 2 --threads "$1" --json "$work/t$1" > "$work/t$1.log" || ret=$?
  if [ "$ret" -gt 1 ]; then
    echo "--threads $1: $sim exited $ret" >&2
    exit 1
  fi
  echo "$work/t$1/ran_slot_sim.json"
}

one=$(slots 1)
three=$(slots 3)
if ! cmp "$one" "$three"; then
  echo "ran_slot_sim: --threads 3 differs from --threads 1" >&2
  exit 1
fi
if [ "$update" -eq 1 ]; then
  cp "$one" "$golden"
  echo "wrote $golden"
elif cmp "$one" "$golden"; then
  echo "ran_slot_sim: identical"
else
  echo "ran_slot_sim: differs from $golden" >&2
  exit 1
fi
