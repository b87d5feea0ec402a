#!/usr/bin/env bash
# Replays the suites whose properties are built with Helpers.qtest, which
# draws a fresh seed on every run, under each fixed QCHECK_SEED in 1..10:
# a false property fails here every time instead of in @runtest now and
# then.  Serve also uses qtest but opens sockets, so it stays out.
# Invoked by the dune rule in test/dune as:  bash seed_sweep.sh TEST_MAIN_EXE
set -euo pipefail

exe=$(realpath "$1")
suites='^(arith|bigint|circuits|cnf-compiler|core|counting|db|extensions'
suites+='|formats|formula|metrics|negation|obdd|prob|rat|stretch|trace)$'

for seed in 1 2 3 4 5 6 7 8 9 10; do
  QCHECK_SEED=$seed "$exe" test "$suites" --compact
done
