#!/bin/sh
# Builds the benchmark from the sources of this checkout, then runs it
# with every argument passed on. Run it from the root of a nocsched
# source tree, e.g.
#
#   sh perfbench/run.sh --workload cat1_pipeline --seed 0 --seconds 20 --trace 0
#
# The last line of standard output is the result object; build output
# goes to standard error.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a nocsched source tree" >&2
  exit 2
fi
# Keep every build product inside the checkout (no shared dune cache).
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
