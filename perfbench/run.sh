#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. The build goes to
# _perfbench_build (release profile), Chrome traces of traced runs to
# _perfbench_out. Exits 2 when the repository sources are missing.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f BENCHMARK.json ]]; then
  echo "perfbench: run from the root of a full checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

build_dir=_perfbench_build
dune build --root . --profile release --build-dir "$build_dir" \
  --display quiet perfbench/bench.exe >&2

export PERFBENCH_PROFILE=release
PERFBENCH_COMMIT=unknown
if [[ -e .git ]]; then
  PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT
exec "$build_dir/default/perfbench/bench.exe" "$@"
