#!/usr/bin/env bash
# CLI-level pins for the database half (Section 5): the stdout of
# `shapmc lineage`, `shapmc classify` and `shapmc stretch`, byte for byte,
# on a hierarchical query, Q0, a safely negated query, a self-join with a
# constant, and an exogenous blocker next to an empty relation.
# Invoked by the dune rule in test/dune as:  bash cli_db_test.sh SHAPMC_EXE
set -euo pipefail

exe="$1"
fail() { echo "cli-db FAILED: $1" >&2; exit 1; }

cat > hier.db <<'EOF'
# Hierarchical, self-join-free, with an exogenous relation.
rel R endo 1
row R 1
row R 2
row R 3
rel S endo 2
row S 1 a
row S 1 b
row S 2 a
row S 4 c
rel U exo 1
row U 1
row U 2
query R(x), S(x,y), U(x)
EOF

cat > q0.db <<'EOF'
# Q0, the non-hierarchical query of Theorem 5.1's hardness side.
rel R endo 1
row R 1
row R 2
rel S exo 2
row S 1 1
row S 1 2
row S 2 2
rel T endo 1
row T 1
row T 2
query R(x), S(x,y), T(y)
EOF

cat > neg.db <<'EOF'
# A safely negated endogenous atom.
rel R endo 1
row R 1
row R 2
row R 3
rel S endo 1
row S 1
row S 3
row S 4
query R(x), !S(x)
EOF

cat > selfjoin.db <<'EOF'
# A self-join with a constant.
rel E endo 2
row E 1 2
row E 2 1
row E 2 3
row E 3 3
query E(x,y), E(y,x), E(y, 3)
EOF

cat > blocker.db <<'EOF'
# A present exogenous tuple under negation kills its assignment; a
# negated empty relation is vacuous.
rel R endo 1
row R 1
row R 2
row R 3
rel S endo 2
row S 1 1
row S 2 2
row S 3 1
rel B exo 1
row B 2
rel Z exo 1
query R(x), S(x,y), !B(y), !Z(x)
EOF

# expect EXPECTED CMD ARGS...: stdout of `shapmc CMD ARGS...` is EXPECTED.
expect() {
  local want="$1" out
  shift
  out=$("$exe" "$@") || fail "$* exited non-zero"
  [ "$out" = "$want" ] || fail "$* printed:
$out
want:
$want"
}

expect "lineage: x1 & x4 | x1 & x5 | x2 & x6
query: R(x), S(x, y), U(x)
answer: true
solver: safe-plan circuit (polynomial)
tuple contributions, most influential first:
  R(1)  11/30 (~ 0.366667)
  R(2)  1/5 (~ 0.200000)
  S(2, a)  1/5 (~ 0.200000)
  S(1, a)  7/60 (~ 0.116667)
  S(1, b)  7/60 (~ 0.116667)
  R(3)  0 (~ 0.000000)
  S(4, c)  0 (~ 0.000000)
  sum = 1 (Prop. 5)" lineage hier.db

expect "lineage: x1 & x3 | x1 & x4 | x2 & x4
query: R(x), S(x, y), T(y)
answer: true
solver: compiled lineage (exponential worst case)
tuple contributions, most influential first:
  R(1)  1/3 (~ 0.333333)
  T(2)  1/3 (~ 0.333333)
  R(2)  1/6 (~ 0.166667)
  T(1)  1/6 (~ 0.166667)
  sum = 1 (Prop. 5)" lineage q0.db

expect "lineage: x1 & !x4 | x2 | x3 & !x5
query: R(x), !S(x)
answer: true
solver: compiled lineage (exponential worst case)
tuple contributions, most influential first:
  R(2)  7/10 (~ 0.700000)
  R(1)  17/60 (~ 0.283333)
  R(3)  17/60 (~ 0.283333)
  S(4)  0 (~ 0.000000)
  S(1)  -2/15 (~ -0.133333)
  S(3)  -2/15 (~ -0.133333)
  sum = 1 (Prop. 5)" lineage neg.db

expect "lineage: x1 & x2 & x3 | x4
query: E(x, y), E(y, x), E(y, 3)
answer: true
solver: compiled lineage (exponential worst case)
tuple contributions, most influential first:
  E(3, 3)  3/4 (~ 0.750000)
  E(1, 2)  1/12 (~ 0.083333)
  E(2, 1)  1/12 (~ 0.083333)
  E(2, 3)  1/12 (~ 0.083333)
  sum = 1 (Prop. 5)" lineage selfjoin.db

expect "lineage: x1 & x4 | x3 & x6
query: R(x), S(x, y), !B(y), !Z(x)
answer: true
solver: compiled lineage (exponential worst case)
tuple contributions, most influential first:
  R(1)  1/4 (~ 0.250000)
  R(3)  1/4 (~ 0.250000)
  S(1, 1)  1/4 (~ 0.250000)
  S(3, 1)  1/4 (~ 0.250000)
  R(2)  0 (~ 0.000000)
  S(2, 2)  0 (~ 0.000000)
  sum = 1 (Prop. 5)" lineage blocker.db

expect "query: R(x), S(x, y), U(x)
hierarchical, self-join-free: Shap(C_Q) is in FP (Theorem 5.1)" \
  classify "R(x), S(x,y), U(x)"
expect "query: R(x), S(x, y), T(y)
non-hierarchical (witness: x, y): Shap(C_Q) is FP^#P-hard (Theorem 5.1)" \
  classify "R(x), S(x,y), T(y)"
expect "query: R(x), !S(x)
has negated atoms: outside the Theorem 5.1 dichotomy (cf. Reshef et al.); solved by lineage compilation" \
  classify "R(x), !S(x)"
expect "query: E(x, y), E(y, x), E(y, 3)
has self-joins: outside the Theorem 5.1 dichotomy" \
  classify "E(x,y), E(y,x), E(y, 3)"
# A quoted constant runs to its closing quote, past ',' and ')'.
expect "query: E('a,b')
hierarchical, self-join-free: Shap(C_Q) is in FP (Theorem 5.1)" \
  classify "E('a,b')"
expect "query: E('a)b', x), F(x)
hierarchical, self-join-free: Shap(C_Q) is in FP (Theorem 5.1)" \
  classify "E('a)b', x), F(x)"

expect 'query:     R(x), S(x, y), U(x)
stretched: R(z$1, x), S(z$2, x, y), U(x)  (fresh: z$1, z$2)
hierarchical: true -> true (Lemma 15: preserved)
diagram commutes on this database: true' stretch hier.db
expect 'query:     R(x), S(x, y), T(y)
stretched: R(z$1, x), S(x, y), T(z$2, y)  (fresh: z$1, z$2)
hierarchical: false -> false (Lemma 15: preserved)
diagram commutes on this database: true' stretch q0.db
expect "query:     E(x, y), E(y, x), E(y, 3)
stretched: E(z\$1, x, y), E(z\$2, y, x), E(z\$3, y, 3)  (fresh: z\$1, z\$2, z\$3)
hierarchical: true -> true (Lemma 15: preserved)
diagram commutes on this database: true" stretch selfjoin.db
expect 'query:     R(x), S(x, y), !B(y), !Z(x)
stretched: R(z$1, x), S(z$2, x, y), !B(y), !Z(x)  (fresh: z$1, z$2)
hierarchical: false -> false (Lemma 15: preserved)
diagram commutes on this database: true' stretch blocker.db

# Definition 10 stretches positive queries: a negated endogenous atom is
# refused before anything is printed.
if "$exe" stretch neg.db >out.log 2>err.log; then
  fail "stretch accepted a negated endogenous atom: $(cat out.log)"
fi
[ -z "$(cat out.log)" ] || fail "stretch neg.db printed: $(cat out.log)"
[ "$(cat err.log)" = "error: Stretch.stretch_query: negated endogenous atom S (Definition 10 is for positive queries)" ] \
  || fail "stretch neg.db error: $(cat err.log)"
echo "cli-db OK"
