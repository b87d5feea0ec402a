#!/usr/bin/env bash
# Builds the shapmc daemon and the end-to-end benchmark from source, then
# runs the benchmark with the given arguments (see e2ebench/README.md):
#
#   bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --smoke
#   bash e2ebench/run.sh compare RESULTS_DIR_A RESULTS_DIR_B
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives in the home directory; the benchmark reads
# and writes only inside the checkout.
export DUNE_CACHE=disabled
# Build output goes to stderr: stdout ends with the result line.
dune build --root . ./bin/shapmc.exe ./e2ebench/e2e.exe 1>&2
exec ./_build/default/e2ebench/e2e.exe --shapmc ./_build/default/bin/shapmc.exe "$@"
