#!/usr/bin/env bash
# CLI contract test for pscheck, the property-based scenario fuzzer:
#   1. a small clean sweep exits 0 and reports every seed clean;
#   2. a planted clock violation is caught (exit 1), shrunk, and the
#      printed one-line repro command reproduces the failure;
#   3. without the plant, the same repro scenario is clean again;
#   4. flag typos and bad numeric values are rejected loudly.
# Usage: pscheck_cli_test.sh /path/to/pscheck
set -u

PSCHECK=${1:?usage: pscheck_cli_test.sh /path/to/pscheck}
failures=0

note() { echo "ok $1"; }
flunk() {
  echo "FAIL $1" >&2
  failures=$((failures + 1))
}

# --- 1. clean smoke sweep -------------------------------------------------
out=$("$PSCHECK" --seeds 8 --seed0 1 --quiet --no-campaign-oracle 2>&1)
rc=$?
if [[ $rc -ne 0 ]]; then
  flunk "clean-sweep: exit $rc, expected 0: $out"
elif [[ $out != *"8/8 seeds clean"* ]]; then
  flunk "clean-sweep: missing summary line: $out"
else
  note clean-sweep
fi

# --- 2. planted violation: caught, shrunk, repro printed -------------------
out=$("$PSCHECK" --seed 3 --plant=clock --no-campaign-oracle \
  --shrink-budget 25 2>&1)
rc=$?
if [[ $rc -ne 1 ]]; then
  flunk "plant-caught: exit $rc, expected 1: $out"
elif [[ $out != *"planted-clock"* ]]; then
  flunk "plant-caught: failure not attributed to planted-clock: $out"
elif [[ $out != *"shrunk in"* ]]; then
  flunk "plant-caught: no shrinking happened: $out"
else
  note plant-caught
fi

repro_cmd=$(printf '%s\n' "$out" | sed -n "s/^  repro: pscheck //p")
if [[ -z $repro_cmd ]]; then
  flunk "plant-repro-line: no repro command printed: $out"
else
  note plant-repro-line
  # Extract the quoted scenario string and the --plant flag.
  repro_str=$(printf '%s\n' "$repro_cmd" | sed -n "s/^--repro='\([^']*\)'.*/\1/p")
  if [[ -z $repro_str ]]; then
    flunk "plant-repro-parse: could not extract scenario from: $repro_cmd"
  else
    # --- 3a. the repro command reproduces the failure ----------------------
    out2=$("$PSCHECK" --repro="$repro_str" --plant=clock --no-shrink \
      --no-campaign-oracle 2>&1)
    rc2=$?
    if [[ $rc2 -ne 1 || $out2 != *"planted-clock"* ]]; then
      flunk "plant-reproduces: exit $rc2: $out2"
    else
      note plant-reproduces
    fi
    # --- 3b. without the plant the same scenario is clean ------------------
    out3=$("$PSCHECK" --repro="$repro_str" --no-campaign-oracle 2>&1)
    rc3=$?
    if [[ $rc3 -ne 0 || $out3 != *"clean"* ]]; then
      flunk "repro-clean-without-plant: exit $rc3: $out3"
    else
      note repro-clean-without-plant
    fi
  fi
fi

# --- 4. loud flag validation ----------------------------------------------
err=$("$PSCHECK" --sees 8 2>&1 >/dev/null)
if [[ $? -ne 2 || $err != *"unknown option --sees"* ]]; then
  flunk "typo-rejected: $err"
else
  note typo-rejected
fi

err=$("$PSCHECK" --plant=entropy 2>&1 >/dev/null)
if [[ $? -ne 2 || $err != *"unknown --plant kind"* ]]; then
  flunk "bad-plant-rejected: $err"
else
  note bad-plant-rejected
fi

err=$("$PSCHECK" --repro='v1,what=ever' 2>&1 >/dev/null)
if [[ $? -ne 2 || $err != *"malformed"* ]]; then
  flunk "bad-repro-rejected: $err"
else
  note bad-repro-rejected
fi

# An input the bench cannot take (no NPB class Z) is a malformed repro
# string too, not an abort inside the profile build.
err=$("$PSCHECK" --repro='v1,fseed=1,rseed=1,bench=LU,input=Z,ranks=8,platform=Tardis,horizon-ms=1000,fault=none' 2>&1 >/dev/null)
if [[ $? -ne 2 || $err != *"malformed --repro string"* ]]; then
  flunk "bad-repro-input-rejected: $err"
else
  note bad-repro-input-rejected
fi

# Numeric options are parsed whole: an out-of-range or malformed value
# exits 2 naming the option, never wraps or saturates.
for bad in "--seeds 4294967297" "--seeds 0" "--seed 18446744073709551616" \
    "--seed -1" "--seed0 1x" "--jobs -2" "--shrink-budget x"; do
  # shellcheck disable=SC2086
  err=$("$PSCHECK" $bad 2>&1 >/dev/null)
  rc=$?
  option=${bad%% *}
  if [[ $rc -ne 2 || $err != *"bad $option value"* ]]; then
    flunk "bad-number-rejected ($bad): exit $rc: $err"
  else
    note "bad-number-rejected ($bad)"
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "$failures pscheck CLI check(s) failed" >&2
  exit 1
fi
echo "all pscheck CLI checks passed"
