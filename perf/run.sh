#!/usr/bin/env bash
# Builds the simulator and its benchmark from source, then runs one
# workload. Run from the root of a checkout:
#
#   bash perf/run.sh --workload pods|fuzz|paper --seed N --seconds S --trace 0|1
#
# The last line of standard output is the JSON result; build output
# goes to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf/run.sh: no simulator sources here (dune-project, lib/); run it from a full checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . --display quiet ./perf/bench.exe 1>&2
exec ./_build/default/perf/bench.exe "$@"
