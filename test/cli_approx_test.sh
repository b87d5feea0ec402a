#!/usr/bin/env bash
# CLI-level checks for the approx subcommand: early stopping, the JSONL
# convergence log, bit-identical replay across --jobs, progress lines
# and the estimator_* metrics series.
# Invoked by the dune rule in test/dune as:  bash cli_approx_test.sh SHAPMC_EXE
set -euo pipefail

exe="$1"
fail() { echo "cli-approx FAILED: $1" >&2; exit 1; }

formula="(x1 & x2) | (x3 & x4)"

# Early stopping: the Hoeffding budget for eps=delta=0.05 is 2952, and
# the Bernstein interval certifies this low-variance instance well
# before that.
out=$("$exe" approx --eps 0.05 --delta 0.05 --seed 7 --convergence c1.jsonl \
        -j 1 "$formula" 2>/dev/null)
grep -q "converged: true" <<<"$out" || fail "run did not converge"
samples=$(awk '/^samples:/{print $2}' <<<"$out")
[ "$samples" -lt 2952 ] || fail "no early stop: spent $samples of 2952"
[ "$(grep -c "±" <<<"$out")" -eq 4 ] || fail "expected 4 ± estimate lines"

# JSONL checkpoints: samples strictly increase, the certified max
# half-width never widens.
[ -s c1.jsonl ] || fail "c1.jsonl empty or missing"
python3 - c1.jsonl <<'EOF' || fail "convergence log not monotone"
import json, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
assert rows, "no checkpoints"
for a, b in zip(rows, rows[1:]):
    assert b["samples"] > a["samples"], "samples not increasing"
    assert b["max_half_width"] <= a["max_half_width"], "half-width widened"
EOF

# Bit-identical replay at -j 4: same stdout, same convergence log.
out4=$("$exe" approx --eps 0.05 --delta 0.05 --seed 7 --convergence c4.jsonl \
         -j 4 "$formula" 2>/dev/null)
[ "$out" = "$out4" ] || fail "-j 4 stdout differs from -j 1"
cmp -s c1.jsonl c4.jsonl || fail "-j 4 convergence log differs from -j 1"

# The same replay for the antithetic estimator on a non-positive
# formula: no truncation applies, and four domains share one compiled
# walker.
neg="(x1 & !x2) | (x3 & x4) | (!x1 & x5 & x6)"
a1=$("$exe" approx --estimator antithetic --eps 0.05 --delta 0.05 --seed 23 \
       --convergence a1.jsonl -j 1 "$neg" 2>/dev/null)
a4=$("$exe" approx --estimator antithetic --eps 0.05 --delta 0.05 --seed 23 \
       --convergence a4.jsonl -j 4 "$neg" 2>/dev/null)
[ -s a1.jsonl ] || fail "a1.jsonl empty or missing"
[ "$a1" = "$a4" ] || fail "antithetic: -j 4 stdout differs from -j 1"
cmp -s a1.jsonl a4.jsonl \
  || fail "antithetic: -j 4 convergence log differs from -j 1"

# A different seed must actually change the run (guards against the
# seed being ignored).
outs=$("$exe" approx --eps 0.05 --delta 0.05 --seed 8 "$formula" 2>/dev/null)
[ "$out" != "$outs" ] || fail "seed 8 reproduced seed 7 exactly"

# --progress writes round lines to stderr, keeping stdout clean.
"$exe" approx --samples 600 --seed 1 --progress "$formula" \
  >prog.out 2>prog.err
grep -q "^progress: samples=" prog.err || fail "no progress lines on stderr"
grep -q "^progress:" prog.out && fail "progress leaked to stdout"

# --metrics exposes the estimator_* series.
"$exe" approx --samples 600 --seed 1 --metrics metrics.out "$formula" \
  >/dev/null 2>/dev/null
grep -q "estimator_samples_total{estimator=\"truncated\"}" metrics.out \
  || fail "estimator_samples_total missing from metrics"
grep -q "estimator_ci_half_width" metrics.out \
  || fail "estimator_ci_half_width missing from metrics"
grep -q "estimator_seconds" metrics.out \
  || fail "estimator_seconds missing from metrics"

# trace-report renders the estimator convergence section from a trace.
"$exe" approx --samples 600 --seed 1 --trace at.jsonl "$formula" \
  >/dev/null 2>/dev/null
report=$("$exe" trace-report at.jsonl)
grep -q "estimator convergence:" <<<"$report" \
  || fail "trace-report lacks the estimator convergence section"
grep -q "truncated" <<<"$report" \
  || fail "convergence section does not name the estimator"

# An unknown estimator is a clean CLI error, not a crash; so are the
# names of the removed permutation and stratified estimators.
for name in bogus permutation stratified; do
  if "$exe" approx --estimator "$name" "$formula" >/dev/null 2>"$name.err"; then
    fail "$name estimator accepted"
  fi
  grep -qi "unknown estimator" "$name.err" \
    || fail "$name estimator: wrong error"
done

echo "cli-approx OK"
