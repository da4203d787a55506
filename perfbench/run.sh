#!/usr/bin/env bash
# Build the benchmark runner from source and run one workload.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root.  The build goes to _build/ (dune's shared
# cache is disabled so nothing is written outside the checkout); build
# output goes to stderr, so the last line on stdout is the runner's JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
