#!/usr/bin/env bash
# CLI contract test for the bench binaries' shared option parsing
# (bench/bench_common.hpp parse_jobs): an unknown option, a stray
# argument and a malformed or negative worker count, on the command line
# or in PARASTACK_BENCH_JOBS, each exit 2 and print nothing on stdout,
# i.e. no campaign has started.
# Usage: bench_cli_test.sh /path/to/bench_fig4_model /path/to/bench_fleet
set -u

BENCH=${1:?usage: bench_cli_test.sh BENCH_BINARY FLEET_BINARY}
FLEET=${2:?usage: bench_cli_test.sh BENCH_BINARY FLEET_BINARY}
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

expect_reject unknown-flag "unknown option --bogus-flag" \
  "$BENCH" --bogus-flag
expect_reject jobs-not-a-number "bad --jobs value 'abc'" \
  "$BENCH" --jobs abc
expect_reject jobs-negative "bad --jobs value '-1'" \
  "$BENCH" --jobs=-1
expect_reject env-jobs-not-a-number "bad PARASTACK_BENCH_JOBS value 'abc'" \
  env PARASTACK_BENCH_JOBS=abc "$BENCH"
expect_reject env-jobs-trailing-text "bad PARASTACK_BENCH_JOBS value '4x'" \
  env PARASTACK_BENCH_JOBS=4x "$BENCH" --jobs 1
expect_reject stray-argument "unexpected argument 'extra'" \
  "$BENCH" extra
expect_reject fleet-unknown-flag "unknown option --bogus-flag" \
  "$FLEET" --quick --bogus-flag

if [[ $failures -ne 0 ]]; then
  echo "$failures bench CLI check(s) failed" >&2
  exit 1
fi
echo "all bench CLI checks passed"
