#!/usr/bin/env bash
# CLI-level checks for `shapmc dimacs`: all four -w modes on CNFs with unit
# clauses, and the line-annotated rejection of an undeclared variable.
# Invoked by the dune rule in test/dune as:  bash cli_dimacs_test.sh SHAPMC_EXE
set -euo pipefail

exe="$1"
fail() { echo "cli-dimacs FAILED: $1" >&2; exit 1; }

# x1 is a unit, x2 becomes one once x1 is fixed, and x6 is declared but
# never mentioned, so every mode counts over the declared universe.
cat > units.cnf <<'EOF'
c Weighted CNF with unit clauses.
p cnf 6 5
c p weight 1 1/3 0
c p weight 2 3/4 0
c p weight 4 0.2 0
1 0
-1 2 0
-2 3 4 0
-3 -4 5 0
4 -5 0
EOF

# Propagation alone refutes this one.
printf 'p cnf 3 3\n1 0\n-1 2 0\n-2 -1 0\n' > refuted.cnf

# expect FILE MODE EXPECTED: stdout of `dimacs -w MODE FILE` is EXPECTED.
expect() {
  local out
  out=$("$exe" dimacs -w "$2" "$1") || fail "dimacs -w $2 $1 exited non-zero"
  [ "$out" = "$3" ] || fail "dimacs -w $2 $1 printed:
$out
want:
$3"
}

expect units.cnf count "8"
expect units.cnf kcount "#_0 = 0
#_1 = 0
#_2 = 0
#_3 = 2
#_4 = 3
#_5 = 2
#_6 = 1"
expect units.cnf shap "x1           19/60          (~ 0.316667)
x2           19/60          (~ 0.316667)
x3           -1/60          (~ -0.016667)
x4           7/30           (~ 0.233333)
x5           3/20           (~ 0.150000)
x6           0              (~ 0.000000)
sum          1"
expect units.cnf wmc "7/80 (~ 0.087500)"

expect refuted.cnf count "0"
expect refuted.cnf kcount "#_0 = 0
#_1 = 0
#_2 = 0
#_3 = 0"
expect refuted.cnf shap "x1           0              (~ 0.000000)
x2           0              (~ 0.000000)
x3           0              (~ 0.000000)
sum          0"
expect refuted.cnf wmc "0 (~ 0.000000)"

# A literal outside 1..num_vars is an error that names its line, in
# every mode.
printf 'p cnf 2 1\n1 3 0\n' > undeclared.cnf
for mode in count kcount shap wmc; do
  if "$exe" dimacs -w "$mode" undeclared.cnf >out.log 2>err.log; then
    fail "-w $mode accepted an undeclared variable: $(cat out.log)"
  fi
  grep -q "out of range 1..2 on line 2" err.log \
    || fail "-w $mode error does not name the line: $(cat err.log)"
done
echo "cli-dimacs OK"
