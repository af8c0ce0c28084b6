#!/usr/bin/env bash
# CLI contract test for psbench's option parsing (bench/psbench.cpp):
# a missing or unknown experiment name, an unknown option, a stray
# argument, a malformed or negative worker count and a
# PARASTACK_BENCH_SCALE other than quick or full each exit 2 and print
# nothing on stdout, i.e. no experiment has started.
# Usage: bench_cli_test.sh /path/to/psbench
set -u

PSBENCH=${1:?usage: bench_cli_test.sh PSBENCH_BINARY}
failures=0

# expect_reject NAME EXPECTED_STDERR_TEXT COMMAND...
expect_reject() {
  local name=$1 text=$2
  shift 2
  local out err rc
  err=$(mktemp)
  out=$(timeout 120 "$@" 2>"$err")
  rc=$?
  if [[ $rc -ne 2 ]]; then
    echo "FAIL $name: exit $rc, expected 2" >&2
    failures=$((failures + 1))
  elif [[ -n $out ]]; then
    echo "FAIL $name: printed on stdout before exiting: $out" >&2
    failures=$((failures + 1))
  elif ! grep -qF -- "$text" "$err"; then
    echo "FAIL $name: stderr does not name '$text': $(cat "$err")" >&2
    failures=$((failures + 1))
  else
    echo "ok $name"
  fi
  rm -f "$err"
}

# A missing or unknown name lists the experiments (fig4 is one of them).
expect_reject missing-name "missing experiment name" "$PSBENCH"
expect_reject missing-name-lists "fig4" "$PSBENCH"
expect_reject unknown-name "unknown experiment 'table6'" "$PSBENCH" table6
expect_reject unknown-name-lists "accuracy" "$PSBENCH" table6

expect_reject unknown-flag "unknown option --bogus-flag" \
  "$PSBENCH" fig4 --bogus-flag
expect_reject jobs-not-a-number "bad --jobs value 'abc'" \
  "$PSBENCH" fig4 --jobs abc
expect_reject jobs-negative "bad --jobs value '-1'" \
  "$PSBENCH" fig4 --jobs=-1
expect_reject stray-argument "unexpected argument 'extra'" \
  "$PSBENCH" fig4 extra
expect_reject fleet-unknown-flag "unknown option --bogus-flag" \
  "$PSBENCH" fleet --bogus-flag
expect_reject fleet-no-quick-flag "unknown option --quick" \
  "$PSBENCH" fleet --quick
expect_reject scale-wrong-case "bad PARASTACK_BENCH_SCALE value 'Full'" \
  env PARASTACK_BENCH_SCALE=Full "$PSBENCH" fig4

if [[ $failures -ne 0 ]]; then
  echo "$failures bench CLI check(s) failed" >&2
  exit 1
fi
echo "all bench CLI checks passed"
