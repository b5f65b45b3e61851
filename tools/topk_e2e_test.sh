#!/bin/sh
# End-to-end top-k acceptance test (registered as ctest
# opthash_serve_topk_e2e), proving the contracts the TopK surface is for:
#
#  1. Served top-k == offline top-k: a space-saving checkpoint queried
#     through the daemon (`opthash_client topk`) prints byte-identical
#     id,estimate,error_bound,guaranteed CSV to the offline
#     `opthash_cli topk` verb on the same file.
#  2. Unsupported kinds degrade, not crash: a count-min daemon answers
#     topk with a kError frame naming the supported kinds, and the same
#     daemon still answers ping/query/metrics afterwards.
#
# Usage: topk_e2e_test.sh CLI SERVE CLIENT WORKDIR [unix|tcp]
set -eu

CLI="$1"; SERVE="$2"; CLIENT="$3"; WORK="$4"; MODE="${5:-unix}"
SOCK="/tmp/opthash_topk_e2e_$$.sock"

if [ "$MODE" = "tcp" ]; then
  SERVE_LISTEN="--listen 127.0.0.1:0"
else
  SERVE_LISTEN="--socket $SOCK"
fi

rm -rf "$WORK"
mkdir -p "$WORK"
trap 'kill -9 $SERVE_PID 2>/dev/null || true; rm -f "$SOCK"' EXIT

# Sets TARGET to the client's connect flags for the daemon whose log is
# $1 — in tcp mode that means waiting for the listen line and parsing
# the ephemeral port out of it (a new port every daemon start).
resolve_target() {
  if [ "$MODE" = "tcp" ]; then
    i=0
    while ! grep -q "listening on tcp:" "$1" 2>/dev/null; do
      i=$((i + 1))
      [ "$i" -lt 100 ] || { echo "FAIL: daemon never printed its port"; exit 1; }
      sleep 0.1
    done
    PORT=$(sed -n 's/.*(port \([0-9][0-9]*\)).*/\1/p' "$1" | head -n 1)
    TARGET="--connect 127.0.0.1:$PORT"
  else
    TARGET="--socket $SOCK"
  fi
}

wait_ready() {
  i=0
  while ! "$CLIENT" $TARGET ping >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "FAIL: daemon never became ready"; exit 1; }
    sleep 0.1
  done
}

# ---------------------------------------------------------------------------
echo "== part 1: served top-k byte-identical to offline topk verb"

# Divisor trace: key j appears floor(500/j) times for j in 1..10, a
# skewed distribution with an easy exact oracle.
awk 'BEGIN {
  print "id,text";
  for (i = 1; i < 500; i++)
    for (j = 1; j <= 10; j++)
      if (i % j == 0) printf "%d,\n", j;
}' > "$WORK/trace.csv"

"$CLI" snapshot --trace "$WORK/trace.csv" --out "$WORK/ss.bin" \
  --sketch ss > /dev/null

"$CLI" topk --in "$WORK/ss.bin" --k 8 2>/dev/null > "$WORK/offline.csv"

"$SERVE" $SERVE_LISTEN --in "$WORK/ss.bin" \
  > "$WORK/serve_ss.log" 2>&1 &
SERVE_PID=$!
resolve_target "$WORK/serve_ss.log"
wait_ready
"$CLIENT" $TARGET topk --k 8 > "$WORK/served.csv"
"$CLIENT" $TARGET shutdown > /dev/null
wait "$SERVE_PID"

grep -q "^id,estimate,error_bound,guaranteed$" "$WORK/offline.csv" || {
  echo "FAIL: offline topk did not print the CSV header"
  exit 1
}
diff "$WORK/offline.csv" "$WORK/served.csv" || {
  echo "FAIL: served top-k differs from offline topk verb"
  exit 1
}
echo "ok: served top-k byte-identical to offline topk"

# ---------------------------------------------------------------------------
echo "== part 2: unsupported kind answers kError and the daemon survives"

"$SERVE" $SERVE_LISTEN --sketch cms \
  > "$WORK/serve_cms.log" 2>&1 &
SERVE_PID=$!
resolve_target "$WORK/serve_cms.log"
wait_ready
"$CLIENT" $TARGET ingest --trace "$WORK/trace.csv" > /dev/null
if "$CLIENT" $TARGET topk --k 8 > /dev/null 2> "$WORK/cms_topk.err"; then
  echo "FAIL: count-min daemon answered topk; expected an error"
  exit 1
fi
grep -q "cannot answer top-k" "$WORK/cms_topk.err" || {
  echo "FAIL: topk error did not explain the unsupported kind"
  exit 1
}
# The error must not have taken the daemon (or even the session) down.
"$CLIENT" $TARGET ping > /dev/null || {
  echo "FAIL: daemon dead after unsupported topk request"
  exit 1
}
"$CLIENT" $TARGET metrics | grep -q "opthash_topk_requests_total" || {
  echo "FAIL: metrics scrape missing the topk request counter"
  exit 1
}
"$CLIENT" $TARGET shutdown > /dev/null
wait "$SERVE_PID"
echo "ok: unsupported top-k degrades to a protocol error, daemon survives"
echo "PASS"
