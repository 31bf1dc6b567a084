#!/usr/bin/env bash
# Runs one example as a test: it must exit 0 and print every expected
# string (fixed strings, matched anywhere in its stdout).
#
#   examples/run_example.sh <binary> [expected...]

set -uo pipefail

BIN="${1:?usage: examples/run_example.sh <binary> [expected...]}"
shift

status=0
out="$("$BIN")" || status=$?
printf '%s\n' "$out"
if ((status != 0)); then
  echo "run_example.sh: $BIN exited $status" >&2
  exit 1
fi
for want in "$@"; do
  if ! grep -qF -- "$want" <<<"$out"; then
    echo "run_example.sh: $BIN did not print: $want" >&2
    exit 1
  fi
done
