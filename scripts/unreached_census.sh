#!/usr/bin/env bash
# Census of the fuser:: functions that no shipped binary reaches.
#
#   scripts/unreached_census.sh [build_dir] [allowlist]
#
# Builds every shipped binary (the nine benches, the examples and
# bench/e2e's fuser_bench) in its own build directory (default
# build-census) with -ffunction-sections -Wl,--gc-sections, so the linker
# drops each function no binary calls. Then prints, one demangled name a
# line, every fuser:: function that libfuser.a defines and no binary keeps.
#
# With an allowlist (one name a line, as printed; '#' starts a comment)
# the script exits 1 when it prints a name the list does not hold, and
# reports list entries the census no longer prints without failing.
#
# The census reads symbols, so a function inlined at every call site is
# listed although a binary runs it: check each entry with grep before
# deleting anything. Inlining differs between compilers and build types,
# so CI gates only its g++ Release build on the allowlist.
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-build-census}"
ALLOWLIST="${2:-}"

examples=()
for source in "$ROOT"/examples/*.cpp; do
  examples+=("$(basename "$source" .cpp)")
done
binaries=(fuser_bench "${examples[@]}")
for bench in paper streaming serving persist correlation sharding memory \
    network inference; do
  binaries+=("bench_$bench")
done

# bench/e2e's project builds the root project's targets too, fuser_bench
# included, without its tests.
cmake -S "$ROOT/bench/e2e" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target fuser "${binaries[@]}" \
  >/dev/null

# Mangled names of the defined fuser:: functions in an object or binary,
# with compiler clone suffixes (.isra.0, .part.0, .cold, ...) dropped.
fuser_functions() {
  nm --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN(K)?5fuser/ { sub(/\..*/, "", $3); print $3 }' |
    sort -u
}

library="$(find "$BUILD_DIR" -name libfuser.a | head -n 1)"
paths=()
for binary in "${binaries[@]}"; do
  paths+=("$(find "$BUILD_DIR" -name "$binary" -type f -perm -u+x | head -n 1)")
done

unreached="$(comm -23 <(fuser_functions "$library") \
                      <(fuser_functions "${paths[@]}") | c++filt | sort -u)"
[ -n "$unreached" ] && printf '%s\n' "$unreached"

[ -z "$ALLOWLIST" ] && exit 0
allowed="$(grep -v '^[[:space:]]*\(#\|$\)' "$ALLOWLIST" | sort -u)"
new="$(comm -23 <(printf '%s\n' "$unreached" | sed '/^$/d') \
                <(printf '%s\n' "$allowed"))"
stale="$(comm -13 <(printf '%s\n' "$unreached" | sed '/^$/d') \
                  <(printf '%s\n' "$allowed"))"
if [ -n "$stale" ]; then
  echo "== allowlisted but reached now (drop from $ALLOWLIST):" >&2
  printf '%s\n' "$stale" >&2
fi
if [ -n "$new" ]; then
  echo "== unreached and not in $ALLOWLIST:" >&2
  printf '%s\n' "$new" >&2
  exit 1
fi
echo "unreached census OK ($(printf '%s\n' "$unreached" | sed '/^$/d' | wc -l) allowlisted)" >&2
