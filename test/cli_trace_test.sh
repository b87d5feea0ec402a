#!/usr/bin/env bash
# CLI-level checks for --stats / --trace composition and trace-report.
# Invoked by the dune rule in test/dune as:  bash cli_trace_test.sh SHAPMC_EXE
set -euo pipefail

exe="$1"
fail() { echo "cli-trace FAILED: $1" >&2; exit 1; }

# --stats and --trace together on one run: the result prints once, the
# stats report prints once, the trace lands in the file — neither flag
# double-reports or resets the other (n = 3, so 13 = (n+1) + n^2 calls).
out=$("$exe" shap -m reduction --stats --trace t.jsonl "x1 & (x2 | !x3)" 2>err.log)
grep -q "5/6" <<<"$out" || fail "Shapley values missing from stdout"
[ "$(grep -c "^oracle calls:" <<<"$out")" -eq 1 ] \
  || fail "stats report not printed exactly once"
grep -q "events written to t.jsonl" err.log \
  || fail "trace confirmation missing from stderr"
[ -s t.jsonl ] || fail "t.jsonl empty or missing"

stats_calls=$(awk '/^  dpll /{print $2}' <<<"$out")
[ "$stats_calls" = "13" ] || fail "stats ledger reports $stats_calls dpll calls, want 13"
trace_calls=$(grep -c '"kind":"oracle"' t.jsonl)
[ "$trace_calls" = "13" ] || fail "trace stream has $trace_calls oracle events, want 13"
grep -q '"lemma":"3.3"' t.jsonl || fail "oracle events lack the lemma tag"

# trace-report replays the stream with the same totals as --stats.
report=$("$exe" trace-report t.jsonl)
grep -q "per-phase aggregates" <<<"$report" || fail "report lacks phase aggregates"
grep -q "oracle totals" <<<"$report" || fail "report lacks oracle totals"
grep -qE "dpll +13\b" <<<"$report" || fail "report totals disagree with the ledger"
grep -q "lemma3.2.full" <<<"$report" || fail "report lacks the lemma3.2.full phase"

# A .json suffix selects the Chrome trace_event format.
"$exe" count --trace t.json "x1 & x2" >/dev/null 2>err2.log
grep -q '"traceEvents"' t.json || fail "no traceEvents in chrome export"
grep -q '"displayTimeUnit"' t.json || fail "no displayTimeUnit in chrome export"

# --trace alone must not print the stats report.
solo=$("$exe" count --trace t2.jsonl "x1 | x2" 2>/dev/null)
if grep -q "^oracle calls:" <<<"$solo"; then
  fail "--trace alone printed the stats report"
fi

# JSONL traces open with the meta line carrying stored/dropped counts.
head -1 t.jsonl | grep -q '"meta":"shapmc.trace"' \
  || fail "t.jsonl lacks the meta line"
head -1 t.jsonl | grep -q '"dropped":0' \
  || fail "meta line lacks the dropped count"

# --profile - prints the self-time/latency/Gc report after the result;
# the oracle TOTAL must agree with the ledger's 13 calls.
prof=$("$exe" shap -m reduction --profile - "x1 & (x2 | !x3)" 2>/dev/null)
grep -q "5/6" <<<"$prof" || fail "profile run lost the Shapley values"
grep -q "== Phases (self time) ==" <<<"$prof" \
  || fail "profile lacks phase self-time"
grep -q "== Oracle latency ==" <<<"$prof" \
  || fail "profile lacks oracle latency"
grep -q "gc_allocated_bytes" <<<"$prof" || fail "profile lacks Gc accounting"
grep -qE "TOTAL +13 " <<<"$prof" \
  || fail "profile oracle TOTAL disagrees with the ledger"

# trace-report --percentiles rebuilds latency rows from the stream,
# with the same TOTAL as the --stats ledger.
perc=$("$exe" trace-report --percentiles t.jsonl)
grep -q "oracle latency percentiles" <<<"$perc" \
  || fail "trace-report lacks the percentile section"
grep -qE "TOTAL +13 " <<<"$perc" \
  || fail "percentile TOTAL disagrees with the ledger"

# --metrics - emits OpenMetrics exposition on stdout.
mets=$("$exe" shap -m reduction --metrics - "x1 & (x2 | !x3)" 2>/dev/null)
grep -q "^# EOF" <<<"$mets" || fail "metrics exposition lacks # EOF"
grep -q "shapmc_oracle_seconds_count" <<<"$mets" \
  || fail "metrics exposition lacks oracle_seconds"
# The ledger is registry series: its counters are one labelled family,
# beside the per-oracle, per-span and per-substitution series the
# --stats tables read.
grep -qx 'shapmc_ledger_counter_total{name="dpll.counts"} 13' <<<"$mets" \
  || fail "metrics exposition lacks ledger_counter{name=dpll.counts} at 13"
if grep -q "^shapmc_dpll_counts" <<<"$mets"; then
  fail "a ledger counter is outside the ledger_counter family"
fi
for series in 'oracle_n_count{oracle="dpll"} 13' \
              'oracle_size_count{oracle="dpll"} 13' \
              'span_seconds_count{span="pipeline.shap_via_count_oracle"} 1' \
              'subst_pre_size_count{kind="formula.or"} 17' \
              'subst_fresh_vars_total{kind="formula.or"} 75'; do
  grep -qxF "shapmc_$series" <<<"$mets" \
    || fail "metrics exposition lacks shapmc_$series"
done

# A formula that does not parse: every formula subcommand prints the
# parser's message on stderr, nothing on stdout (no stats table) and
# exits 1.
for cmd in count kcount shap banzhaf approx prob factor compile export-nnf; do
  rc=0
  "$exe" "$cmd" --stats "x1 & (" >perr.out 2>perr.log || rc=$?
  [ "$rc" -eq 1 ] || fail "$cmd on a parse error exited $rc, want 1"
  [ ! -s perr.out ] || fail "$cmd on a parse error printed to stdout: $(cat perr.out)"
  [ "$(cat perr.log)" = "error: Parser: expected a formula at position 6" ] \
    || fail "$cmd on a parse error printed: $(cat perr.log)"
done

# factor and compile print a variable by its source name, and an id
# without one as x<id>.  The AND parts of a read-once factoring come in
# the order of Vset.components over the variables.
expect_out() {
  local out
  out=$("$exe" "$1" "$2") || fail "$1 $2 exited non-zero"
  [ "$out" = "$3" ] || fail "$1 $2 printed:
$out
want:
$3"
}
expect_out factor "a & b | a & c | d" "read-once: d | (c | b) & a"
expect_out factor "x2 & a | x2 & b" "read-once: (b | a) & x2"
expect_out factor "x1 & x2 | x3 & x4" "read-once: x4 & x3 | x2 & x1"
expect_out compile "a & b | c" "gates: 5  edges: 4  expansions: 0  cache hits: 0
(c |x (b & a))"
expect_out compile "x2 & a | x2 & b" "gates: 5  edges: 4  expansions: 1  cache hits: 0
((b |x a) & x2)"

# --stats pinned byte for byte: the oracle-call table, the substitution
# aggregates, the counters and the span table of the commands below, with
# every number of four or more decimals (timings, float estimates)
# masked.  stats.expected holds this block's output.
cat > stats_hier.db <<'EOF'
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
cat > stats_q0.db <<'EOF'
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
g="(x1 & x2) | (x2 & !x3) | (x3 & x4) | (x1 & x4 & x5)"
mask() { sed -E 's/[0-9]+\.[0-9]{4,}/#/g'; }
{
  for cmd in "shap -m reduction" "shap -m reduction -j 3" \
             "kcount -m reduction" "shap -m pqe" "count -m circuit" \
             "count -m dpll" "count -m brute" "banzhaf -m dpll" \
             "approx --seed 3 --samples 600"; do
    echo "\$ shapmc $cmd --stats \"$g\""
    # shellcheck disable=SC2086
    "$exe" $cmd --stats "$g" | mask
  done
  for db in stats_hier.db stats_q0.db; do
    echo "\$ shapmc lineage --stats $db"
    "$exe" lineage --stats "$db" | mask
  done
} > stats.out
diff -u stats.expected stats.out || fail "--stats output differs from stats.expected"

# A named identifier takes an id above every x<digits> of the formula.
[ "$("$exe" count "a & !x1")" = "1" ] || fail "count 'a & !x1' conflates a with x1"

# x0 has no c2d literal, and no place in -n's universe x1..xN: both
# commands print the error alone and exit 1.
expect_error() {
  local want="$1" rc=0
  shift
  "$exe" "$@" >xerr.out 2>xerr.log || rc=$?
  [ "$rc" -eq 1 ] || fail "$* exited $rc, want 1"
  [ ! -s xerr.out ] || fail "$* printed to stdout: $(cat xerr.out)"
  [ "$(cat xerr.log)" = "$want" ] || fail "$* printed: $(cat xerr.log)"
}
expect_error "error: Nnf_io.export: variable x0 outside 1..1" export-nnf "!x0 & x1"
expect_error "error: universe 3 is x1..x3, which misses the variable x0" \
  count -n 3 "x0 & x1"

# export-nnf then count-nnf round-trips a formula over x1..x3.
rt="x1 & (x2 | !x3)"
"$exe" export-nnf "$rt" >rt.nnf || fail "export-nnf '$rt' exited non-zero"
[ "$("$exe" count-nnf rt.nnf | grep '^count:')" = "count: $("$exe" count "$rt")" ] \
  || fail "count-nnf of export-nnf '$rt' differs from count"

echo "cli-trace: all checks passed"
