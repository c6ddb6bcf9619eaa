#!/usr/bin/env bash
# Builds ccstarve_bench from source (first call only; later calls are
# an up-to-date check) and runs one workload in its own process:
#
#   bash perfbench/run_benchmark.sh --workload paper --seed 1 \
#       --seconds 15 --trace 0
#
# Every other argument is passed to ccstarve_bench (see perfbench/README.md).
# Build output goes to stderr, so the last line on stdout is its JSON
# result. The build tree is .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "${root}/src/CMakeLists.txt" ]]; then
  echo "run_benchmark.sh: no simulator sources under ${root}/src" >&2
  exit 2
fi
build="${root}/.bench_build"

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "${root}/perfbench" -B "${build}" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "${build}" --target ccstarve_bench -j "${jobs}" >&2

exec "${build}/ccstarve_bench" --repo "${root}" "$@"
