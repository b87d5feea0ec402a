#!/usr/bin/env bash
# CLI-level checks for `shapmc serve`: startup, the JSON API over a real
# socket, request limits, OpenMetrics, graceful SIGTERM shutdown with
# exit 0, and immediate port reuse after the kill.
# Invoked by the dune rule in test/dune as:
#   bash cli_serve_test.sh SHAPMC_EXE SERVE_PROBE_EXE
set -euo pipefail

exe="$1"
probe="$2"
# dune hands over build-relative paths; bare names need ./ to exec
case "$exe" in */*) ;; *) exe="./$exe" ;; esac
case "$probe" in */*) ;; *) probe="./$probe" ;; esac
fail() { echo "cli-serve FAILED: $1" >&2; exit 1; }

cat > serve_demo.db <<'EOF'
# Example 13: Q = R1(x), R2(x), all four tuples endogenous.
rel R1 endo 1
row R1 1
row R1 2
rel R2 endo 1
row R2 1
row R2 2
query R1(x), R2(x)
EOF

# 300 facts: a full page of them is larger than the daemon's write buffer.
{
  echo "rel R endo 1"
  for i in $(seq 1 300); do echo "row R $i"; done
  echo "query R(x)"
} > serve_wide.db

"$exe" serve --port 0 --read-timeout 5 --access-log access.jsonl serve_demo.db serve_wide.db > serve.log 2>&1 &
srv=$!
trap 'kill -9 $srv 2>/dev/null || true' EXIT

# Wait for the startup line and extract the ephemeral port.
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' serve.log | head -1)
  [ -n "$port" ] && break
  sleep 0.05
done
[ -n "$port" ] || fail "server did not announce a port: $(cat serve.log)"

# healthz, including the observability fields
out=$("$probe" 127.0.0.1 "$port" GET /healthz)
grep -q "HTTP/1.1 200" <<<"$out" || fail "healthz not 200: $out"
grep -q '"status":"ok"' <<<"$out" || fail "healthz body wrong: $out"
grep -q '"version":' <<<"$out" || fail "healthz version missing: $out"
grep -q '"pid":' <<<"$out" || fail "healthz pid missing: $out"
grep -q '"uptime_seconds":' <<<"$out" || fail "healthz uptime missing: $out"

# every response carries correlation headers
grep -qi "x-request-id:" <<<"$out" || fail "X-Request-Id header missing: $out"
grep -qi "traceparent: 00-" <<<"$out" || fail "traceparent header missing: $out"

# the query catalog carries the loaded file under its basename
out=$("$probe" 127.0.0.1 "$port" GET /v1/queries)
grep -q '"name":"serve_demo"' <<<"$out" || fail "queries body wrong: $out"
grep -q '"classification":"hierarchical"' <<<"$out" || fail "classification missing: $out"

# a page, answered by the cache fill and then by a hit: identical bodies
fill=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/all '{"query":"serve_demo","limit":2}')
grep -q "HTTP/1.1 200" <<<"$fill" || fail "page not 200: $fill"
grep -q '"next_cursor":"f000000000002"' <<<"$fill" || fail "page lacks its next_cursor: $fill"
hit=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/all '{"query":"serve_demo","limit":2}')
[ "$(tail -1 <<<"$hit")" = "$(tail -1 <<<"$fill")" ] \
  || fail "the hit's page differs from the fill's: $hit"
out=$("$probe" 127.0.0.1 "$port" GET /metrics)
grep -q '^shapmc_cache_misses_total{tier="shapley"} 1$' <<<"$out" \
  || fail "the first page was not the one fill: $out"
grep -q '^shapmc_cache_hits_total{tier="shapley"} 1$' <<<"$out" \
  || fail "the second page was not a hit: $out"
# ...and the bytes of rendered elements resident are reported
awk '/^shapmc_cache_bytes\{tier="shapley"\}/ { if ($NF + 0 > 0) ok = 1 } END { exit !ok }' <<<"$out" \
  || fail "no cache_bytes gauge after a page: $out"
# ...and the cache is one tier: the answer's 4 facts are resident, and
# no other tier has a series
grep -q '^shapmc_cache_entries{tier="shapley"} 4$' <<<"$out" \
  || fail "the answer's 4 facts are not resident: $out"
if grep -q 'tier="circuit"' <<<"$out"; then
  fail "/metrics carries a circuit tier: $(grep 'tier="circuit"' <<<"$out" | head -3)"
fi

# exact Shapley value of fact 1 (Example 13: 1/4)
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley '{"query":"serve_demo","fact":1}')
grep -q "HTTP/1.1 200" <<<"$out" || fail "shapley not 200: $out"
grep -q '"num":"1","den":"4"' <<<"$out" || fail "shapley value wrong: $out"

# ...and it agrees with the batch CLI on the same database
batch=$("$exe" lineage serve_demo.db)
grep -q "1/4" <<<"$batch" || fail "batch CLI disagrees: $batch"

# repeated queries are served from the serving cache:
# the answers stay bit-identical and /metrics reports cache hits
first=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/all '{"query":"serve_demo"}')
grep -q "HTTP/1.1 200" <<<"$first" || fail "shapley/all not 200: $first"
for _ in 1 2 3; do
  again=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/all '{"query":"serve_demo"}')
  [ "$(tail -1 <<<"$again")" = "$(tail -1 <<<"$first")" ] \
    || fail "cached answer differs from the first: $again"
done

# unknown routes / facts
out=$("$probe" 127.0.0.1 "$port" GET /nope)
grep -q "HTTP/1.1 404" <<<"$out" || fail "missing 404: $out"
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley '{"query":"serve_demo","fact":99}')
grep -q "HTTP/1.1 404" <<<"$out" || fail "unknown fact not 404: $out"
out=$("$probe" 127.0.0.1 "$port" POST /healthz)
grep -q "HTTP/1.1 405" <<<"$out" || fail "healthz POST not 405: $out"
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley 'not json')
grep -q "HTTP/1.1 400" <<<"$out" || fail "malformed body not 400: $out"

# body limit: a >1 MiB declared body answers 413 (body shipped via
# file — argv cannot carry it)
head -c 1048577 /dev/zero | tr '\0' 'x' > bigbody.txt
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley @bigbody.txt)
grep -q "HTTP/1.1 413" <<<"$out" || fail "oversized body not 413: $out"

# metrics: OpenMetrics exposition with the http and rolling SLO series
out=$("$probe" 127.0.0.1 "$port" GET /metrics)
grep -q "shapmc_http_requests_total" <<<"$out" || fail "http_requests missing from /metrics: $out"
grep -q "shapmc_http_slo_error_ratio" <<<"$out" || fail "SLO series missing from /metrics: $out"
grep -q "# EOF" <<<"$out" || fail "OpenMetrics terminator missing"
awk '/^shapmc_cache_hits_total/ { if ($NF + 0 > 0) ok = 1 } END { exit !ok }' <<<"$out" \
  || fail "no cache hits recorded after repeated queries: $out"

# debug ring: the recent requests are listed, and a profile is servable
out=$("$probe" 127.0.0.1 "$port" GET /v1/debug/requests)
grep -q "HTTP/1.1 200" <<<"$out" || fail "debug listing not 200: $out"
grep -q '"requests":' <<<"$out" || fail "debug listing body wrong: $out"
rid=$(grep -o '"id":"[^"]*"' <<<"$out" | head -1 | sed 's/"id":"\(.*\)"/\1/')
[ -n "$rid" ] || fail "no request id in the debug listing: $out"
out=$("$probe" 127.0.0.1 "$port" GET "/v1/debug/requests/$rid")
grep -q '"events":' <<<"$out" || fail "debug profile body wrong: $out"
out=$("$probe" 127.0.0.1 "$port" GET "/v1/debug/requests/$rid?format=chrome")
grep -q '"traceEvents":' <<<"$out" || fail "chrome export body wrong: $out"
# an unknown id answers 404, naming the ring's 64 slots (the default)
out=$("$probe" 127.0.0.1 "$port" GET /v1/debug/requests/nope)
grep -q "HTTP/1.1 404" <<<"$out" || fail "unknown profile not 404: $out"
grep -q 'ring keeps the last 64)' <<<"$out" \
  || fail "the 404 does not name the ring's 64 slots: $out"

# an approx request's profile carries its estimator checkpoints, and
# holds one oracle event per oracle call it reports
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/approx \
  '{"query":"serve_demo","eps":0.1,"delta":0.1,"seed":1}')
grep -q "HTTP/1.1 200" <<<"$out" || fail "shapley/approx not 200: $out"
approx_rid=$(grep -i '^x-request-id:' <<<"$out" | head -1 | sed 's/^[^:]*: *//' | tr -d '\r')
[ -n "$approx_rid" ] || fail "approx response lacks X-Request-Id: $out"
profile=""
for _ in $(seq 1 100); do
  profile=$("$probe" 127.0.0.1 "$port" GET "/v1/debug/requests/$approx_rid")
  grep -q "HTTP/1.1 200" <<<"$profile" && break
  sleep 0.05
done
grep -q "HTTP/1.1 200" <<<"$profile" || fail "approx profile not served: $profile"
grep -q '"estimator.checkpoint"' <<<"$profile" \
  || fail "approx profile lacks estimator.checkpoint events: $profile"
approx_calls=$(grep -o '"oracle_calls":[0-9]*' <<<"$profile" | head -1 | cut -d: -f2)
oracle_events=$(grep -o '"kind":"oracle"' <<<"$profile" | wc -l)
[ -n "$approx_calls" ] && [ "$approx_calls" -gt 0 ] \
  || fail "approx profile reports no oracle calls: $profile"
[ "$oracle_events" -eq "$approx_calls" ] \
  || fail "approx profile holds $oracle_events oracle events for $approx_calls oracle calls"

# serve never turns the ledger on: after cold solves and an approx
# request with oracle calls, /metrics carries none of its series.
out=$("$probe" 127.0.0.1 "$port" GET /metrics)
ledger='^shapmc_(ledger_counter|oracle_(n|size|seconds)|span_(seconds|self_seconds|alloc_bytes)|subst_(pre_size|post_size|fresh_vars))[_{ ]'
if grep -qE "$ledger" <<<"$out"; then
  fail "/metrics carries ledger series: $(grep -E "$ledger" <<<"$out" | head -3)"
fi

# A response larger than the daemon's 16 KB write buffer: the page of
# serve_wide.db's 300 facts is 31 KB in 601 parts (a head, 300
# elements, 299 commas and a tail).  Every probe checks that the body
# it read is as long as its Content-Length.
out=$("$probe" 127.0.0.1 "$port" POST /v1/shapley/all '{"query":"serve_wide","limit":1000}')
grep -q "HTTP/1.1 200" <<<"$out" || fail "wide page not 200: $(head -1 <<<"$out")"
grep -q '"fact":300,' <<<"$out" || fail "wide page lacks its last fact"
[ "${#out}" -gt 16384 ] || fail "wide page is only ${#out} bytes"

# graceful shutdown: SIGTERM drains and exits 0
kill -TERM $srv
if ! wait $srv; then fail "server exited nonzero on SIGTERM"; fi
grep -q "shut down cleanly" serve.log || fail "no clean-shutdown line: $(cat serve.log)"

# the access log has one JSON line per request, and `shapmc tail --once`
# summarizes it
[ -s access.jsonl ] || fail "access log empty or missing"
head -1 access.jsonl | grep -q '"route":' || fail "access log line malformed: $(head -1 access.jsonl)"
approx_line=$(grep "\"id\":\"$approx_rid\"" access.jsonl || true)
[ -n "$approx_line" ] || fail "access log lacks the approx request $approx_rid"
grep -q "\"oracle_calls\":$approx_calls[,}]" <<<"$approx_line" \
  || fail "access log oracle_calls differs from the profile's $approx_calls: $approx_line"
tail_out=$("$exe" tail --once access.jsonl)
grep -q "TOTAL" <<<"$tail_out" || fail "tail --once has no TOTAL row: $tail_out"
grep -q "/healthz" <<<"$tail_out" || fail "tail --once misses the healthz route: $tail_out"

# the port is released: an immediate restart on the SAME port binds
"$exe" serve --port "$port" serve_demo.db > serve2.log 2>&1 &
srv=$!
ok=""
for _ in $(seq 1 100); do
  grep -q "listening on" serve2.log && { ok=1; break; }
  grep -qi "error" serve2.log && break
  sleep 0.05
done
[ -n "$ok" ] || fail "restart on port $port failed (EADDRINUSE?): $(cat serve2.log)"
out=$("$probe" 127.0.0.1 "$port" GET /healthz)
grep -q "HTTP/1.1 200" <<<"$out" || fail "restarted server not healthy: $out"
kill -TERM $srv
wait $srv || fail "restarted server exited nonzero"

# A non-positive limit stops startup with an error naming its flag,
# whether it comes from the environment or the command line.  (A zero
# read timeout would turn SO_RCVTIMEO off and let a stalled client hold
# a worker forever.)
refused() {
  local log="$1" msg="$2"
  shift 2
  if timeout 10 "$@" > "$log" 2>&1; then
    fail "server accepted a bad limit: $(cat "$log")"
  fi
  grep -q "error: $msg" "$log" || fail "no '$msg' error: $(cat "$log")"
}
refused bad_timeout.log "--read-timeout must be positive, got 0" \
  env SHAPMC_READ_TIMEOUT=0 "$exe" serve --port 0 serve_demo.db
refused bad_body.log "--max-body-bytes must be positive, got 0" \
  "$exe" serve --port 0 --max-body-bytes 0 serve_demo.db

echo "cli-serve OK"
