#!/bin/sh
# Command-line exit-code contract of the driver and bench binaries.
#
#   tests/cli_contract.sh BINARY...
#
# Every binary exits 0 on --help and 2 on an unknown flag or on a value flag
# with no operand, so a typo can never silently run a default configuration.
# Malformed values exit 2 as well; ran_slot_sim, farm_driver and dse_driver
# are each checked on one. Only rejected command lines are run, so no check
# starts a simulation unless the binary fails to reject it.
set -u

status=0

# expect CODE BINARY ARGS...: runs BINARY ARGS and checks its exit code.
expect() {
  want=$1
  bin=$2
  shift 2
  ret=0
  "$bin" "$@" > /dev/null 2>&1 || ret=$?
  if [ "$ret" -ne "$want" ]; then
    echo "FAIL: $(basename "$bin") $*: exit $ret, want $want" >&2
    status=1
  else
    echo "ok: $(basename "$bin") $*: exit $ret"
  fi
}

if [ $# -eq 0 ]; then
  echo "usage: $0 BINARY..." >&2
  exit 2
fi
for bin in "$@"; do
  case $(basename "$bin") in
    farm_driver) value_flag=--cells ;;
    dse_driver | ran_slot_sim) value_flag=--ttis ;;
    bench_ran_throughput) value_flag=--policy ;;
    *) value_flag=--csv ;;
  esac
  expect 0 "$bin" --help
  expect 2 "$bin" --definitely-not-a-flag
  expect 2 "$bin" "$value_flag"
  case $(basename "$bin") in
    ran_slot_sim)
      expect 2 "$bin" --ttis abc
      expect 2 "$bin" --poisson xyz
      ;;
    farm_driver) expect 2 "$bin" --cells 0 ;;
    dse_driver) expect 2 "$bin" --clock -1 ;;
  esac
done
exit $status
