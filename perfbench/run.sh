#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs one
# workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's result is the last line
# of stdout. Without the repository's libraries beside it the build
# fails, and so does this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
