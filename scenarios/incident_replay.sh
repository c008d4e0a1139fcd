#!/usr/bin/env bash
# Replay of the classic smash-and-grab probe: enumerate the catalog, dump
# what the session can see, then try to exfiltrate. The broker serves the
# scoped reads, alerts on the pattern, and refuses the exfiltration; once
# the contract is revoked, the session serves nothing more.
#
# Requires `enclave-broker` and `enclave-brokerd` on PATH (pip install -e .).
set -euo pipefail
cd "$(dirname "$0")"

WORK=$(mktemp -d)
BROKER_PID=""
cleanup() {
  if [ -n "$BROKER_PID" ]; then kill "$BROKER_PID" 2>/dev/null || true; fi
  rm -rf "$WORK"
}
trap cleanup EXIT

export ENCLAVE_BROKER_ENDPOINT="$WORK/broker.sock"
start_broker() {
  enclave-brokerd \
    --endpoint "$ENCLAVE_BROKER_ENDPOINT" \
    --data-dir "$WORK/state" \
    --table warehouse.orders=data/orders.csv &
  BROKER_PID=$!
  for _ in $(seq 50); do
    [ -S "$ENCLAVE_BROKER_ENDPOINT" ] && break
    sleep 0.1
  done
  [ -S "$ENCLAVE_BROKER_ENDPOINT" ] || { echo "broker did not start" >&2; exit 3; }
}
start_broker

echo "== provision scoped access =="
enclave-broker contract submit reporting.contract
TOKEN=$(enclave-broker contract activate c1 | awk '{print $NF}')
ENCLAVE=$(enclave-broker enclave broker c1 | awk '{print $2}')
SESSION=$(enclave-broker --token "$TOKEN" session open "$ENCLAVE" | awk '{print $2}')
echo "session: $SESSION"

echo
echo "== the probe =="
enclave-broker query "$SESSION" 'SHOW TABLES'
enclave-broker query "$SESSION" 'SELECT * FROM orders'
# The exfiltration step must exit 1; reaching `exit 1` here means it was allowed.
enclave-broker query "$SESSION" 'COPY INTO s3://loot FROM orders' && exit 1 || echo "(denied, exit $?)"

echo
echo "== revoke: the session dies with its enclave =="
enclave-broker contract revoke c1 --reason "exfiltration attempt"
# A query on the revoked session must exit 1; reaching `exit 1` here means it was served.
enclave-broker query "$SESSION" 'SHOW TABLES' && exit 1 || echo "(denied, exit $?)"

echo
echo "== what the monitor saw =="
enclave-broker alerts

echo
echo "== the audit trail =="
enclave-broker audit export
BEFORE=$(enclave-broker audit verify)
echo "$BEFORE"
[[ "$BEFORE" == "Ok ("*" events)" ]] || { echo "unexpected verdict: $BEFORE" >&2; exit 1; }

restart_broker() {
  kill "$BROKER_PID"
  wait "$BROKER_PID" || true
  rm -f "$ENCLAVE_BROKER_ENDPOINT"  # a killed broker leaves its socket file
  start_broker
}

echo
echo "== the same trail, checked by a fresh broker =="
# A start parses every line and keeps a digest of the lines it checked;
# the first verify after it rehashes those lines instead of parsing them.
restart_broker
AFTER=$(enclave-broker audit verify)
echo "$AFTER"
[ "$AFTER" = "$BEFORE" ] || { echo "after the restart: $AFTER; before: $BEFORE" >&2; exit 1; }

echo
echo "== one byte of seq 1 rewritten after a start =="
# Overwrite in place, so the broker keeps appending to the same file. The
# lines no longer hash to the digest the start kept, so the first verify
# checks every line in full, and must name seq 1.
restart_broker
LOG="$WORK/state/audit.log"
LINE1=$(head -n 1 "$LOG" | wc -c)
KEY=$(sed -n 2p "$LOG" | grep -b -o '"payload":{"' | head -n 1 | cut -d: -f1)
printf 'Z' | dd of="$LOG" bs=1 seek=$((LINE1 + KEY + 12)) conv=notrunc status=none
TAMPERED=$(enclave-broker audit verify) && STATUS=0 || STATUS=$?
echo "$TAMPERED (exit $STATUS)"
[ "$STATUS" -eq 1 ] && [ "$TAMPERED" = "FirstBadSeq: 1" ] || { echo "after the rewrite: $TAMPERED, exit $STATUS" >&2; exit 1; }
