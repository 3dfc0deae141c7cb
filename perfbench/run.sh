#!/usr/bin/env bash
# Build the benchmark from source, then run one workload in a fresh
# process:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to stderr, so
# the last line on stdout is the result object.  The dune cache is off
# so the build reads and writes nothing outside the checkout, and the
# program runs with OCaml's default GC settings whatever the caller's
# OCAMLRUNPARAM says.
set -euo pipefail
unset OCAMLRUNPARAM
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
# Run on one CPU.  The serve workloads hand every request to a worker
# domain and wait for it; across two vCPUs each hand-off waits for the
# hypervisor to wake the idle one, which took 6 to 70 microseconds per
# request depending on the host's load.  On one CPU the hand-off is a
# plain context switch.  The closed-loop client never needs the second
# CPU: it waits while the worker runs.
if command -v taskset >/dev/null; then
  exec taskset -c "$(($(nproc) - 1))" ./_build/default/perfbench/main.exe "$@"
fi
exec ./_build/default/perfbench/main.exe "$@"
