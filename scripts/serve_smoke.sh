#!/bin/sh
# serve-smoke: boot pcqed against the README fixtures, run one scripted
# client session per role over HTTP, scrape the operator listener's
# /metrics and /debug/pprof/, check that a second pcqed whose operator
# address is taken fails to start, then SIGTERM the daemon and assert it
# drains cleanly (exit 0) with the audit journal flushed gap-free.
# Run via `make serve-smoke`; needs only curl and POSIX sh.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
# A failed check must not leave a daemon behind.
PCQED=
trap '[ -z "$PCQED" ] || kill $PCQED 2>/dev/null; rm -rf "$WORK"' EXIT

fail() {
	echo "serve-smoke: $1" >&2
	[ -f "$WORK/pcqed.log" ] && sed 's/^/  pcqed: /' "$WORK/pcqed.log" >&2
	exit 1
}

$GO build -o "$WORK/pcqed" ./cmd/pcqed || fail "build failed"

"$WORK/pcqed" \
	-table Proposal=testdata/proposal.csv \
	-table CompanyInfo=testdata/companyinfo.csv \
	-role sue=secretary -role mark=manager \
	-policy secretary:analysis:0.05 -policy manager:investment:0.06 \
	-listen 127.0.0.1:0 -addr-file "$WORK/addr" \
	-journal "$WORK/audit.jsonl" -drain-timeout 5s \
	-debug-listen 127.0.0.1:0 \
	>"$WORK/pcqed.log" 2>&1 &
PCQED=$!

# Wait for the daemon to publish its ephemeral address.
i=0
while [ ! -s "$WORK/addr" ]; do
	i=$((i + 1))
	[ $i -gt 100 ] && fail "daemon never published its address"
	kill -0 $PCQED 2>/dev/null || fail "daemon exited before listening"
	sleep 0.1
done
ADDR=$(cat "$WORK/addr")
BASE="http://$ADDR"
# The operator listener is bound and printed before the address file
# is written.
OPS=$(sed -n 's|^pcqed operator listener on http://||p' "$WORK/pcqed.log")
[ -n "$OPS" ] || fail "daemon did not print its operator listener address"

QUERY='SELECT DISTINCT CompanyInfo.Company, Income FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company WHERE Funding < 1000000'

# A pair no policy covers is refused at the door.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/session" \
	-d '{"user":"intruder","purpose":"analysis"}')
[ "$code" = "401" ] || fail "unpolicied handshake got $code, want 401"

# sue (secretary/analysis, beta 0.05): the 0.058 row is released.
SUE=$(curl -s -X POST "$BASE/v1/session" -d '{"user":"sue","purpose":"analysis"}' |
	sed -n 's/.*"token":"\([0-9a-f]*\)".*/\1/p')
[ -n "$SUE" ] || fail "sue handshake returned no token"
out=$(curl -s -X POST "$BASE/v1/query" -H "Authorization: Bearer $SUE" \
	-d "{\"query\":\"$QUERY\"}")
echo "$out" | grep -q '"ZStart"' || fail "sue was not released the ZStart row: $out"
echo "$out" | grep -q '"withheld_count":0' || fail "sue saw withheld rows: $out"

# mark (manager/investment, beta 0.06): withheld, improvement offered,
# applied, and the re-run releases the row.
MARK=$(curl -s -X POST "$BASE/v1/session" -d '{"user":"mark","purpose":"investment"}' |
	sed -n 's/.*"token":"\([0-9a-f]*\)".*/\1/p')
[ -n "$MARK" ] || fail "mark handshake returned no token"
out=$(curl -s -X POST "$BASE/v1/query" -H "Authorization: Bearer $MARK" \
	-d "{\"query\":\"$QUERY\",\"min_fraction\":1}")
echo "$out" | grep -q '"withheld_count":1' || fail "mark's row was not withheld: $out"
PROP=$(echo "$out" | sed -n 's/.*"proposal":{"id":"\([^"]*\)".*/\1/p')
[ -n "$PROP" ] || fail "no improvement proposal offered: $out"
out=$(curl -s -X POST "$BASE/v1/apply" -H "Authorization: Bearer $MARK" \
	-d "{\"proposal_id\":\"$PROP\"}")
echo "$out" | grep -q '"applied":true' || fail "apply failed: $out"
out=$(curl -s -X POST "$BASE/v1/query" -H "Authorization: Bearer $MARK" \
	-d "{\"query\":\"$QUERY\"}")
echo "$out" | grep -q '"withheld_count":0' || fail "improved row still withheld: $out"

# The session-scoped audit tail shows mark's trail.
out=$(curl -s "$BASE/v1/audit?limit=10" -H "Authorization: Bearer $MARK")
echo "$out" | grep -q '"kind":"apply"' || fail "audit tail missing the apply event: $out"

# The operator listener: Prometheus text with one name from each layer
# the session went through and a runtime gauge, and net/http/pprof.
out=$(curl -s "http://$OPS/metrics")
for name in pcqe_server_queries pcqe_engine_queries pcqe_sql_plancache_misses pcqe_relation_snapshots_taken pcqe_runtime_goroutines; do
	echo "$out" | grep -q "^$name [0-9]" || fail "/metrics has no $name sample: $out"
done
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$OPS/debug/pprof/cmdline")
[ "$code" = "200" ] || fail "/debug/pprof/cmdline got $code, want 200"

# A taken operator address fails startup: the first daemon's main
# address, handed to a second daemon as -debug-listen.
"$WORK/pcqed" -table Proposal=testdata/proposal.csv \
	-listen 127.0.0.1:0 -debug-listen "$ADDR" >"$WORK/second.log" 2>&1 &
SECOND=$!
i=0
while kill -0 $SECOND 2>/dev/null; do
	i=$((i + 1))
	if [ $i -gt 50 ]; then
		kill $SECOND
		fail "a second pcqed kept running on the taken operator address $ADDR"
	fi
	sleep 0.1
done
if wait $SECOND; then
	fail "a second pcqed exited 0 on the taken operator address $ADDR"
fi
grep -q "operator listener" "$WORK/second.log" || fail "second pcqed failed for another reason: $(cat "$WORK/second.log")"

# Drain: SIGTERM must finish in-flight work, flush the journal and
# exit 0.
kill -TERM $PCQED
if ! wait $PCQED; then
	PCQED=
	fail "daemon exited non-zero on SIGTERM"
fi
PCQED=
grep -q "drained cleanly" "$WORK/pcqed.log" || fail "daemon did not report a clean drain"
[ -s "$WORK/audit.jsonl" ] || fail "audit journal was not flushed"
# Gap-free Seq: line N carries "seq":N.
n=0
while IFS= read -r line; do
	n=$((n + 1))
	echo "$line" | grep -q "\"Seq\":$n," || fail "journal gap at line $n: $line"
done <"$WORK/audit.jsonl"
[ $n -ge 4 ] || fail "journal has only $n events"

echo "serve-smoke: ok ($n audit events, drained cleanly)"
