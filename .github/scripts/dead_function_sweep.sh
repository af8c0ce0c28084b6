#!/usr/bin/env bash
# Dead-function sweep: lists every out-of-line library function that no
# shipped executable keeps.
#
#   .github/scripts/dead_function_sweep.sh
#
# Configures perfbench/ into build-sweep/. perfbench pulls in the whole
# repository as a subproject, so perfbench is a root next to psim, pscheck,
# every bench and every example. Build type None keeps the root's
# RelWithDebInfo default from adding -O2, and -O0 keeps every call out of
# line; one section per function plus --gc-sections leaves each executable
# only the functions it reaches. The `T` symbols of the libparastack_*
# archives minus every symbol an executable keeps are printed, demangled.
# A header-inline member is never a `T` symbol, so it never shows.
#
# Prints nothing and exits 0 when every library function is kept; exits 1
# if anything is listed, if the build fails or if a target binary is
# missing.
set -euo pipefail
export LC_ALL=C  # sort and comm must agree on the order

cd "$(dirname "$0")/../.."
build=build-sweep

targets=(perfbench psim pscheck)
for source in bench/*.cpp examples/*.cpp; do
  targets+=("$(basename "$source" .cpp)")
done

mkdir -p "$build"
log="$build/sweep_build.log"
if ! { cmake -S perfbench -B "$build" -DCMAKE_BUILD_TYPE=None \
         -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections" \
         -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" &&
       cmake --build "$build" -j "$(nproc)" --target "${targets[@]}"; } \
     >"$log" 2>&1; then
  cat "$log" >&2
  echo "dead-function sweep: the build failed" >&2
  exit 1
fi

binaries=()
missing=0
for target in "${targets[@]}"; do
  binary="$(find "$build" -type f -perm -u+x -name "$target" -print -quit)"
  if [ -z "$binary" ]; then
    echo "missing executable: $target"
    missing=1
  else
    binaries+=("$binary")
  fi
done

find "$build" -name 'libparastack_*.a' -exec nm --defined-only {} + |
  awk '$2 == "T" { print $3 }' | sort -u >"$build/library_functions.txt"
for binary in "${binaries[@]}"; do
  nm --defined-only "$binary"
done | awk '{ print $NF }' | sort -u >"$build/kept_symbols.txt"
comm -23 "$build/library_functions.txt" "$build/kept_symbols.txt" |
  c++filt >"$build/dead_functions.txt"

cat "$build/dead_functions.txt"
if [ "$missing" -ne 0 ] || [ -s "$build/dead_functions.txt" ]; then
  exit 1
fi
