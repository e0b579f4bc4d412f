#!/bin/sh
# Profile the simulator hot paths without an external profiler.
#
# perf, valgrind and gdb need not be installed, and OCaml 5 dropped
# gprof support (ocamlopt -p). The simulator profiles itself instead:
#
#   1. `tools/sample.exe pods|serve [SEED]` — a SIGPROF stack sampler:
#      a 1 ms ITIMER_PROF timer records the OCaml call stack
#      (Printexc.get_callstack) and the run ends with inclusive and leaf
#      tables per function. This is the tool that attributes a
#      whole-cluster cell's host time to a function; run it first.
#   2. `bench layers`  — wall-clock ns/event per stack layer (raw engine
#      dispatch, effect/suspension machinery, CPU slice loop, kernel IPC
#      ping loop). Attribute a regression to a layer before reading code.
#   3. `bench alloc`   — minor words allocated per event on each fast
#      path. A fast path that starts allocating shows up here long
#      before wall-clock noise would convict it.
#   4. `bench engine-core` — raw dispatch throughput, burst and
#      steady-state shapes.
#   5. OCAMLRUNPARAM=v=0x400 — GC stats on exit (minor/major collections,
#      words promoted). Compare before/after a change.
#
# Wall-clock on a shared machine is noisy (±20-30% run to run on
# sub-second cells); run each measurement 3+ times and compare minima.

set -e
cd "$(dirname "$0")/.."

dune build bench/main.exe tools/sample.exe 2>/dev/null

echo "=== stack samples: pods cell, cluster seed 1000 ==="
./_build/default/tools/sample.exe pods 1000

echo
echo "=== per-layer cost (run 3x, compare minima) ==="
for i in 1 2 3; do
  ./_build/default/bench/main.exe layers | grep ns/event
  echo "---"
done

echo
echo "=== allocation per event ==="
./_build/default/bench/main.exe alloc | grep words/event

echo
echo "=== raw dispatch throughput ==="
./_build/default/bench/main.exe engine-core | grep events/s

echo
echo "=== content-addressed transfer (dedup on vs off, byte counts) ==="
# Virtual-time/byte-count cell, so the numbers are exact, not noisy:
# watch the wire-byte reduction and the cached return-migration cost.
./_build/default/bench/main.exe dedup -j 1 | grep -E "bytes on wire|return"

echo
echo "=== GC totals for the pinned --quick profile ==="
OCAMLRUNPARAM=v=0x400 ./_build/default/bench/main.exe --quick -j 1 \
  >/dev/null 2>/tmp/vsim_gc_stats.$$ || true
grep -E "minor_collections|major_collections|minor_words|promoted" \
  /tmp/vsim_gc_stats.$$ || cat /tmp/vsim_gc_stats.$$
rm -f /tmp/vsim_gc_stats.$$
