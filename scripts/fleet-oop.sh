#!/usr/bin/env bash
# Out-of-process fleet smoke. Builds the binaries, then runs cloudsim, two
# `cloudmon -instance` members and a `cloudmon -fleet-front`, each its own
# process on a loopback port, and drives `loadmon -target` through the
# front. Fails unless the load report counts no request errors and the
# front's federated /metrics carries cloudmon_verdicts_total for both
# members and the front's fleet_routed_total. Every process it starts is
# stopped on exit, pass or fail.
#
#   bash scripts/fleet-oop.sh        (or: make fleet-oop)
set -euo pipefail

CLOUD=127.0.0.1:18776
M0_PROXY=127.0.0.1:18100 M0_INSPECT=127.0.0.1:18101
M1_PROXY=127.0.0.1:18110 M1_INSPECT=127.0.0.1:18111
FRONT=127.0.0.1:18200 FRONT_METRICS=127.0.0.1:18202

work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do
		kill "$pid" 2>/dev/null || true
	done
	for pid in "${pids[@]}"; do
		wait "$pid" 2>/dev/null || true
	done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "fleet-oop: $*" >&2
	for log in "$work"/*.log; do
		echo "--- $(basename "$log")" >&2
		tail -n 20 "$log" >&2
	done
	exit 1
}

# start NAME ARGS... runs a built binary in the background, logging to
# $work/NAME.log.
start() {
	local name=$1
	shift
	"$@" >"$work/$name.log" 2>&1 &
	pids+=($!)
}

# await ADDR waits until something answers HTTP on ADDR.
await() {
	for _ in $(seq 100); do
		if curl -s -o /dev/null --max-time 1 "http://$1/"; then
			return 0
		fi
		sleep 0.1
	done
	fail "nothing answers on $1"
}

go build -o "$work/" ./cmd/cloudsim ./cmd/cloudmon ./cmd/loadmon

# The quota is far above what 200 requests of cinder-mixed can create.
start cloudsim "$work/cloudsim" -addr "$CLOUD" -quota 100000
await "$CLOUD"
project=$(sed -n 's/^  project myProject: \([^ ]*\) .*/\1/p' "$work/cloudsim.log")
[ -n "$project" ] || fail "cloudsim printed no project id"

start m-00 "$work/cloudmon" -cloud "http://$CLOUD" -project "$project" \
	-addr "$M0_PROXY" -inspect-addr "$M0_INSPECT" -instance m-00
start m-01 "$work/cloudmon" -cloud "http://$CLOUD" -project "$project" \
	-addr "$M1_PROXY" -inspect-addr "$M1_INSPECT" -instance m-01
start front "$work/cloudmon" \
	-fleet-front "m-00=http://$M0_PROXY|http://$M0_INSPECT,m-01=http://$M1_PROXY|http://$M1_INSPECT" \
	-addr "$FRONT" -metrics-addr "$FRONT_METRICS"
for addr in "$M0_PROXY" "$M0_INSPECT" "$M1_PROXY" "$M1_INSPECT" "$FRONT" "$FRONT_METRICS"; do
	await "$addr"
done

# No warmup: all 200 requests count in the report.
"$work/loadmon" -target "http://$FRONT" -cloud "http://$CLOUD" -project "$project" \
	-scenario cinder-mixed -requests 200 -warmup 0 | tee "$work/report.txt"
grep -q ': 200 requests' "$work/report.txt" || fail "the report does not count 200 requests"
grep -q 'errors 0$' "$work/report.txt" || fail "the load run had request errors"

curl -s --max-time 10 "http://$FRONT_METRICS/metrics" >"$work/federated.txt" ||
	fail "no federated /metrics from the front"
for id in m-00 m-01; do
	grep -Eq "^cloudmon_verdicts_total\{[^}]*instance=\"$id\"" "$work/federated.txt" ||
		fail "federated /metrics has no cloudmon_verdicts_total for $id"
done
grep -q '^fleet_routed_total' "$work/federated.txt" ||
	fail "federated /metrics has no fleet_routed_total"
echo "fleet-oop: 200 requests through the front, no errors; both members federate"
