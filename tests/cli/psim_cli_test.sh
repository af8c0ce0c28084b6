#!/usr/bin/env bash
# CLI contract test for psim: bad enum-style flag values must name the valid
# set and exit non-zero, and so must options a subcommand does not read (a
# typo must not silently run a different experiment); --tool-faults must
# round-trip through a real run.
# Usage: psim_cli_test.sh /path/to/psim
set -u

PSIM=${1:?usage: psim_cli_test.sh /path/to/psim}
failures=0

# expect_reject NAME EXPECTED_STDERR_SNIPPET ARGS...
# Asserts exit code 2 and that stderr mentions the valid choices.
expect_reject() {
  local name=$1 snippet=$2
  shift 2
  local err
  err=$("$PSIM" "$@" 2>&1 >/dev/null)
  local rc=$?
  if [[ $rc -ne 2 ]]; then
    echo "FAIL $name: exit code $rc, expected 2" >&2
    failures=$((failures + 1))
  elif [[ $err != *"$snippet"* ]]; then
    echo "FAIL $name: stderr missing '$snippet': $err" >&2
    failures=$((failures + 1))
  else
    echo "ok $name"
  fi
}

expect_reject unknown-benchmark "unknown benchmark 'QR'" \
  run --bench QR --ranks 32
expect_reject unknown-platform "expected Tardis|Tianhe-2|Stampede" \
  run --bench LU --ranks 32 --platform BlueGene
expect_reject unknown-fault "unknown fault type 'fire'" \
  run --bench LU --ranks 32 --fault fire
expect_reject unknown-detector "expected parastack|timeout|io-watchdog" \
  run --bench LU --ranks 32 --detectors parastack,sentinel
expect_reject unknown-tool-fault-key "unknown tool-fault key 'los'" \
  run --bench LU --ranks 32 --tool-faults los=0.05
expect_reject malformed-crash "expected NODE@SEC or rand@SEC" \
  run --bench LU --ranks 32 --tool-faults crash=3
expect_reject garbage-tool-fault-value "bad --tool-faults value" \
  run --bench LU --ranks 32 --tool-faults loss=lots
expect_reject unknown-batch-system "expected slurm|torque" \
  submit --bench LU --ranks 32 --system lsf
expect_reject bad-fleet-jobs "bad --fleet value" \
  run --bench LU --ranks 32 --fleet=0
expect_reject bad-fleet-arrival "expected JOBS[,poisson|trace,POOL]" \
  run --bench LU --ranks 32 --fleet=2,bursty
# Numbers are parsed whole and must fit their field: a trailing character
# or a value the field cannot hold is an error, never a truncated value.
expect_reject trailing-fleet-jobs "bad --fleet value '2x'" \
  run --bench LU --ranks 32 --fleet=2x
expect_reject overflowing-fleet-jobs "bad --fleet value '4294967298'" \
  run --bench LU --ranks 32 --fleet=4294967298
expect_reject trailing-fleet-pool "bad --fleet value '2,poisson,1x'" \
  run --bench LU --ranks 32 --fleet=2,poisson,1x
expect_reject trailing-tree-fanout "bad --tree value '2x'" \
  run --bench LU --ranks 32 --tree=2x
expect_reject trailing-tool-fault-values "bad --tool-faults value" \
  run --bench LU --ranks 32 --tool-faults=loss=0.1x,retries=3x
expect_reject trailing-tool-fault-retries "unknown tool-fault key 'retries'" \
  run --bench LU --ranks 32 --tool-faults=retries=3x
expect_reject negative-campaign-jobs "bad --jobs value '-5'" \
  campaign --bench LU --ranks 32 --runs 2 --fault compute-hang --jobs -5
expect_reject negative-fleet-jobs "bad --jobs value '-1'" \
  run --bench LU --ranks 32 --fleet=2 --jobs -1
# Every numeric option is parsed whole by Args::get_whole: a malformed,
# out-of-range or unrepresentable value exits 2 naming the option, never
# wraps, saturates or aborts.
expect_reject overflowing-ranks "bad --ranks value '4294967298'" \
  run --bench LU --ranks 4294967298
expect_reject trailing-ranks "bad --ranks value '32x'" \
  run --bench LU --ranks 32x
expect_reject zero-ranks "bad --ranks value '0'" \
  run --bench LU --ranks 0
expect_reject overflowing-runs "bad --runs value '4294967297'" \
  campaign --bench LU --ranks 32 --runs 4294967297
expect_reject overflowing-seed "bad --seed value '99999999999999999999'" \
  run --bench LU --ranks 32 --seed 99999999999999999999
expect_reject negative-seed "bad --seed value '-1'" \
  run --bench LU --ranks 32 --seed -1
expect_reject nan-alpha "bad --alpha value 'nan'" \
  run --bench LU --ranks 32 --alpha nan
expect_reject zero-alpha "bad --alpha value '0' (expected 0 < A < 1)" \
  run --bench LU --ranks 32 --alpha 0
expect_reject unused-bad-alpha "bad --alpha value '2'" \
  run --bench LU --ranks 32 --detectors timeout --alpha 2
expect_reject negative-trace-ranks "bad --trace-ranks value '-1'" \
  run --bench LU --ranks 32 --trace-ranks -1
expect_reject overflowing-walltime "bad --walltime-min value '999999999999999'" \
  submit --bench LU --ranks 32 --walltime-min 999999999999999
# --input is an NPB class (C, D or E) or, for HPL and HPCG, a positive whole
# size: anything else once aborted the profile build or ran a nonsense size.
expect_reject npb-input-class "bad --input value 'Z' (expected C, D or E)" \
  run --bench LU --input Z
expect_reject hpl-input-text "bad --input value 'abc' (expected an integer from 1 to" \
  run --bench HPL --input abc
expect_reject hpl-input-negative "bad --input value '-5'" \
  run --bench HPL --input -5
expect_reject hpcg-input-fraction "bad --input value '1.5'" \
  run --bench HPCG --input 1.5
# Every --tool-faults number must lie in its range: a probability outside
# [0, 1] or a negative duration, instant or node is an error.
expect_reject tool-fault-loss-above-one "loss takes 0 to 1, not 1.5" \
  run --bench LU --ranks 64 --tool-faults loss=1.5
expect_reject tool-fault-loss-negative "loss takes 0 to 1, not -0.5" \
  run --bench LU --ranks 64 --tool-faults loss=-0.5
expect_reject tool-fault-quorum-above-one "unknown tool-fault key 'quorum'" \
  run --bench LU --ranks 64 --tool-faults quorum=2
expect_reject tool-fault-crash-negative-instant "crash takes 0 to 1e9 s, not -3" \
  run --bench LU --ranks 64 --tool-faults crash=rand@-3
expect_reject tool-fault-crash-negative-node "crash takes 0 or more, not -2" \
  run --bench LU --ranks 64 --tool-faults crash=-2@5
expect_reject tool-fault-lead-crash-negative "lead-crash takes 0 to 1e9 s, not -1" \
  run --bench LU --ranks 64 --tool-faults lead-crash=-1
expect_reject tool-fault-retries-negative "unknown tool-fault key 'retries'" \
  run --bench LU --ranks 64 --tool-faults retries=-1
expect_reject tool-fault-delay-negative "delay-ms takes 0 to 1e12 ms, not -1" \
  run --bench LU --ranks 64 --tool-faults delay-ms=-1
expect_reject tool-fault-timeout-negative "unknown tool-fault key 'timeout-ms'" \
  run --bench LU --ranks 64 --tool-faults timeout-ms=-1
expect_reject tool-fault-backoff-negative "unknown tool-fault key 'backoff-ms'" \
  run --bench LU --ranks 64 --tool-faults backoff-ms=-1
expect_reject tool-fault-rereg-negative "unknown tool-fault key 'rereg-ms'" \
  run --bench LU --ranks 64 --tool-faults rereg-ms=-1
# The retry protocol, the re-registration cost and the detector's quorum
# rules are constants: their keys are unknown, whatever the value.
for entry in quorum=0.5 degraded-after=3 extra-streak=2 timeout-ms=5 \
  retries=2 backoff-ms=10 rereg-ms=250; do
  expect_reject "removed-tool-fault-key-${entry%%=*}" \
    "unknown tool-fault key '${entry%%=*}'" \
    run --bench LU --ranks 32 --tool-faults "loss=0.1,$entry"
done
# --tree takes the fan-out alone: the depth cap and the per-level gather
# deadline are gone.
expect_reject tree-depth-field "bad --tree value '2,3'" \
  run --bench LU --ranks 32 --tree 2,3
expect_reject tree-deadline-fields "bad --tree value 'inf,0,5'" \
  run --bench LU --ranks 32 --tree inf,0,5
# Each telemetry artifact is a JSON document: two of them on stdout would
# interleave into text no parser reads, so psim refuses and names both flags.
expect_reject journal-and-trace-on-stdout "--journal and --chrome-trace" \
  run --bench LU --ranks 32 --seed 3 --journal - --chrome-trace -
expect_reject metrics-and-trace-on-stdout "--metrics-out and --chrome-trace" \
  run --bench LU --ranks 32 --seed 3 --metrics-out - --chrome-trace -

# The largest seed is a valid seed and runs as itself.
out=$("$PSIM" run --bench LU --input C --ranks 32 \
  --seed 18446744073709551615 2>&1)
rc=$?
if [[ $rc -ne 0 || $out != *"seed 18446744073709551615"* ]]; then
  echo "FAIL max-seed: exit code $rc: $out" >&2
  failures=$((failures + 1))
else
  echo "ok max-seed"
fi

# Options a subcommand does not read are rejected, never ignored: a typo
# like --tre for --tree must not quietly run the default topology.
expect_reject unknown-campaign-flag "psim campaign: unknown option --bogus-flag" \
  campaign --bench LU --ranks 32 --runs 2 --fault compute-hang --bogus-flag
expect_reject unknown-run-flag "psim run: unknown option --tre" \
  run --bench LU --ranks 32 --tre 2
expect_reject run-jobs-without-fleet "psim run: unknown option --jobs" \
  run --bench LU --ranks 32 --jobs 2
expect_reject metrics-alias "psim run: unknown option --metrics" \
  run --bench LU --ranks 32 --metrics m.json
expect_reject unknown-submit-flag "psim submit: unknown option --runs" \
  submit --bench LU --ranks 32 --runs 3
expect_reject unknown-list-flag "psim list: unknown option --verbose" \
  list --verbose

# A campaign with zero detections has no response delay to average.
out=$("$PSIM" campaign --bench LU --ranks 32 --runs 2 --fault compute-hang \
  --detectors=timeout 2>&1)
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "FAIL no-detection-delay: exit code $rc, expected 0" >&2
  echo "$out" >&2
  failures=$((failures + 1))
elif [[ $out != *"missed 2"* || $out != *"response delay n/a"* ]]; then
  echo "FAIL no-detection-delay: expected 2 misses and 'response delay n/a'" >&2
  echo "$out" >&2
  failures=$((failures + 1))
else
  echo "ok no-detection-delay"
fi

# A valid faulty run with tool faults: exits 0 and reports the tool-fault
# accounting line on stdout.
out=$("$PSIM" run --bench LU --input C --ranks 32 --seed 11 \
  --fault compute-hang --tool-faults loss=0.1,crash=rand@30 2>&1)
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "FAIL tool-fault-run: exit code $rc, expected 0" >&2
  echo "$out" >&2
  failures=$((failures + 1))
elif [[ $out != *"tool faults:"* ]]; then
  echo "FAIL tool-fault-run: stdout missing 'tool faults:' line" >&2
  echo "$out" >&2
  failures=$((failures + 1))
else
  echo "ok tool-fault-run"
fi

# Faults-off runs must NOT print the tool-fault accounting line.
out=$("$PSIM" run --bench LU --input C --ranks 32 --seed 11 \
  --fault compute-hang 2>&1)
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "FAIL clean-run: exit code $rc, expected 0" >&2
  failures=$((failures + 1))
elif [[ $out == *"tool faults:"* ]]; then
  echo "FAIL clean-run: unexpected 'tool faults:' line in faults-off run" >&2
  failures=$((failures + 1))
else
  echo "ok clean-run"
fi

# --fleet=1 writes the plain run's artifacts with exactly three additions:
# tenant 0's fleet_admit line ahead of the journal, and the fleet's three
# perf counters in the metrics. The Chrome trace does not change at all.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"$PSIM" run --bench LU --input C --ranks 32 --seed 11 --fault compute-hang \
  --journal "$tmp/plain.jsonl" --metrics-out "$tmp/plain.json" \
  --chrome-trace "$tmp/plain.trace" >/dev/null 2>&1
"$PSIM" run --bench LU --input C --ranks 32 --seed 11 --fault compute-hang \
  --fleet=1 --journal "$tmp/fleet.jsonl" --metrics-out "$tmp/fleet.json" \
  --chrome-trace "$tmp/fleet.trace" >/dev/null 2>&1
# identity_result RC ARTIFACT: report the comparison that just exited RC.
identity_result() {
  if [[ $1 -ne 0 ]]; then
    echo "FAIL fleet-identity-$2: differs from the plain run beyond the" \
      "fleet's additions" >&2
    failures=$((failures + 1))
  else
    echo "ok fleet-identity-$2"
  fi
}
admit='{"ev":"fleet_admit","t_ns":0,"tenant":0,"admitted":true,"monitors":2,"pool_in_use":2}'
[[ $(head -n 1 "$tmp/fleet.jsonl") == "$admit" ]] &&
  tail -n +2 "$tmp/fleet.jsonl" | cmp -s - "$tmp/plain.jsonl"
identity_result $? jsonl
fleet_keys='"perf.fleet.admitted":1,"perf.fleet.pool.monitors.hw":2,"perf.fleet.refused":0,'
grep -qF "$fleet_keys" "$tmp/fleet.json" &&
  sed "s/${fleet_keys//./\\.}//" "$tmp/fleet.json" | cmp -s - "$tmp/plain.json"
identity_result $? json
cmp -s "$tmp/fleet.trace" "$tmp/plain.trace"
identity_result $? trace

# A multi-tenant fleet run exits 0 and reports the admission, outcome and
# bill summary lines.
out=$("$PSIM" run --bench LU --input C --ranks 32 --seed 11 \
  --fault compute-hang --fleet=3,trace,4 2>&1)
rc=$?
if [[ $rc -ne 0 ]]; then
  echo "FAIL fleet-run: exit code $rc, expected 0" >&2
  echo "$out" >&2
  failures=$((failures + 1))
elif [[ $out != *"admission:"* || $out != *"outcomes:"* ||
        $out != *"bill:"* || $out == *"ingest:"* ]]; then
  echo "FAIL fleet-run: want admission/outcomes/bill and no ingest summary" >&2
  echo "$out" >&2
  failures=$((failures + 1))
else
  echo "ok fleet-run"
fi

# expect_write_failure NAME STDOUT PATH ARGS...
# Runs psim with stdout sent to STDOUT; asserts exit code 1 (the code a
# file that cannot be opened gets) and that stderr names PATH as unwritable.
expect_write_failure() {
  local name=$1 stdout=$2 path=$3
  shift 3
  local err
  err=$("$PSIM" "$@" 2>&1 >"$stdout")
  local rc=$?
  if [[ $rc -ne 1 ]]; then
    echo "FAIL $name: exit code $rc, expected 1" >&2
    failures=$((failures + 1))
  elif [[ $err != *"cannot write '$path'"* ]]; then
    echo "FAIL $name: stderr missing \"cannot write '$path'\": $err" >&2
    failures=$((failures + 1))
  else
    echo "ok $name"
  fi
}

# A telemetry artifact that cannot be written fails the command instead of
# being lost silently.
if [[ -c /dev/full ]]; then
  expect_write_failure journal-write-error /dev/null /dev/full \
    run --bench LU --input C --ranks 32 --journal /dev/full
  expect_write_failure metrics-write-error /dev/null /dev/full \
    run --bench LU --input C --ranks 32 --metrics-out /dev/full
  expect_write_failure trace-write-error /dev/null /dev/full \
    run --bench LU --input C --ranks 32 --chrome-trace /dev/full
  expect_write_failure stdout-journal-write-error /dev/full - \
    run --bench LU --input C --ranks 32 --journal -
else
  echo "skip write-error cases: no /dev/full"
fi

if [[ $failures -ne 0 ]]; then
  echo "$failures CLI check(s) failed" >&2
  exit 1
fi
echo "all CLI checks passed"
