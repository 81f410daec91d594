#!/bin/sh
# Farm soak goldens: the only writer of tests/golden/farm_*.json.
#
#   tests/golden/farm_goldens.sh FARM_DRIVER            rerun and cmp
#   tests/golden/farm_goldens.sh --update FARM_DRIVER   rewrite the goldens
#
# Three farm_driver configurations, each pinned byte-for-byte:
#   farm_quick.json        the clean --quick soak;
#   farm_faults.json       hart traps, ECC-scrubbed L1 flips, lost and late
#                          indications, and a cluster failure at TTI 8;
#   farm_faults_noecc.json the same faults with ECC off, heavier indication
#                          faults and an 8-slot delay under a 4-slot HARQ
#                          feedback timeout.
# Together they make every fault column and `timeouts` non-zero, so a
# counter that is dropped, renamed or swapped with another changes a file.
# Every report is independent of --shards; the check runs at --shards 2 so
# the rows also cross the worker pipe.
set -eu

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
if [ $# -ne 1 ]; then
  echo "usage: $0 [--update] FARM_DRIVER" >&2
  exit 2
fi
driver=$1
golden_dir=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

faults="--quick --ttis 64 --cells 2 --ues 16 --hart-trap-rate 0.02 --l1-flip-rate 0.05 --cluster-fail 8"

status=0
run() {
  name=$1
  shift
  mkdir -p "$work/$name"
  # shellcheck disable=SC2068  # the flag lists are meant to split
  "$driver" $@ --shards 2 --json "$work/$name" > "$work/$name.log"
  if [ "$update" -eq 1 ]; then
    cp "$work/$name/farm_soak.json" "$golden_dir/$name.json"
    echo "wrote $golden_dir/$name.json"
  elif cmp "$work/$name/farm_soak.json" "$golden_dir/$name.json"; then
    echo "$name: identical"
  else
    echo "$name: differs from $golden_dir/$name.json" >&2
    status=1
  fi
}

run farm_quick --quick
run farm_faults $faults --drop-ind 0.02 --delay-ind 0.02
run farm_faults_noecc $faults --no-ecc --drop-ind 0.05 --delay-ind 0.05 \
  --delay-slots 8 --harq-timeout 4
exit $status
