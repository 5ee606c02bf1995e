#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
