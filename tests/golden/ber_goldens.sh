#!/bin/sh
# Fig. 9/10 BER goldens: the only writer of tests/golden/fig9_*.json and
# tests/golden/fig10_*.json.
#
#   tests/golden/ber_goldens.sh BENCH            rerun and cmp
#   tests/golden/ber_goldens.sh --update BENCH   rewrite the goldens
#
# BENCH is bench_fig9_ber_awgn or bench_fig10_ber_rayleigh. Each runs its
# quick Monte-Carlo sweep (fixed seeds, every detector precision on the
# emulated cluster) and writes one JSON table per subfigure; every table is
# pinned byte-for-byte, so any change to a BER point changes a file.
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
prefix=$(basename "$bench" | sed 's/^bench_//')
golden_dir=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$bench" --json "$work" > "$work/run.log"

status=0
found=0
for out in "$work"/"$prefix"_*.json; do
  [ -e "$out" ] || break
  found=1
  name=$(basename "$out")
  if [ "$update" -eq 1 ]; then
    cp "$out" "$golden_dir/$name"
    echo "wrote $golden_dir/$name"
  elif cmp "$out" "$golden_dir/$name"; then
    echo "$name: identical"
  else
    echo "$name: differs from $golden_dir/$name" >&2
    status=1
  fi
done
if [ "$found" -eq 0 ]; then
  echo "$bench wrote no ${prefix}_*.json table" >&2
  exit 1
fi
# A golden the bench no longer writes is a dropped subfigure.
for golden in "$golden_dir"/"$prefix"_*.json; do
  [ -e "$golden" ] || continue
  if [ ! -e "$work/$(basename "$golden")" ]; then
    echo "$(basename "$golden"): no longer written by $bench" >&2
    status=1
  fi
done
exit $status
