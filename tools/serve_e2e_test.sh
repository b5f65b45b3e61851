#!/bin/sh
# End-to-end serving acceptance test (registered as ctest
# opthash_serve_e2e), proving the two contracts the daemon is for:
#
#  1. Served answers == offline answers: a trained model bundle queried
#     key-only is byte-identical (same id,estimate CSV) across five
#     readers: the offline `opthash_cli query` verb, the daemon with and
#     without --mmap 1, and `opthash_cli restore --trace` with and
#     without --mmap 1. Most queried ids miss the learned table, so this
#     pins the one miss rule of every verb and open mode.
#  2. Crash recovery: ingest part A, snapshot, ingest part B, kill -9;
#     a daemon restarted from the rotated snapshot that re-ingests part B
#     answers exactly like one unbroken ingestion of A+B (checked against
#     the offline `snapshot`/`restore` verbs with identical geometry).
#
# Both transports run the identical script: MODE=unix drives the daemon
# over --socket, MODE=tcp over --listen 127.0.0.1:0 with the
# kernel-picked port parsed from the daemon's "listening on tcp:" line.
#
# Usage: serve_e2e_test.sh CLI SERVE CLIENT WORKDIR [unix|tcp]
set -eu

CLI="$1"; SERVE="$2"; CLIENT="$3"; WORK="$4"; MODE="${5:-unix}"
SOCK="/tmp/opthash_e2e_$$.sock"

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
echo "== part 1: served and restored bundle answers == offline query verb"

awk 'BEGIN {
  print "id,text";
  for (i = 0; i < 400; i++) {
    id = (i % 13 == 0) ? i % 7 : 100 + i % 90;
    printf "%d,item %d words\n", id, id;
  }
}' > "$WORK/prefix.csv"
# Key-only queries (empty text): the wire protocol is key-only, so the
# offline reference must be too.
awk 'BEGIN { print "id,text"; for (i = 0; i < 160; i++) printf "%d,\n", i; }' \
  > "$WORK/queries.csv"

"$CLI" train --trace "$WORK/prefix.csv" --out "$WORK/model.bin" \
  --buckets 120 --solver dp --classifier cart --format binary \
  > /dev/null

"$CLI" query --model "$WORK/model.bin" --trace "$WORK/queries.csv" \
  > "$WORK/offline.csv"

# Serves the bundle with the extra daemon flags $1 (the log is
# serve_bundle$2.log) and writes the client's answers to served$2.csv.
serve_bundle() {
  "$SERVE" $SERVE_LISTEN --in "$WORK/model.bin" $1 \
    > "$WORK/serve_bundle$2.log" 2>&1 &
  SERVE_PID=$!
  resolve_target "$WORK/serve_bundle$2.log"
  wait_ready
  "$CLIENT" $TARGET query --trace "$WORK/queries.csv" \
    > "$WORK/served$2.csv"
  "$CLIENT" $TARGET shutdown > /dev/null
  wait "$SERVE_PID"
}
serve_bundle "" ""
serve_bundle "--mmap 1" "_mmap"
grep -q "load mode: mmap" "$WORK/serve_bundle_mmap.log" || {
  echo "FAIL: the --mmap 1 daemon did not map the bundle"
  exit 1
}
"$CLI" restore --in "$WORK/model.bin" --trace "$WORK/queries.csv" \
  > "$WORK/restored.csv" 2> /dev/null
"$CLI" restore --in "$WORK/model.bin" --trace "$WORK/queries.csv" \
  --mmap 1 > "$WORK/restored_mmap.csv" 2> "$WORK/restored_mmap.log"
grep -q "load mode: mmap" "$WORK/restored_mmap.log" || {
  echo "FAIL: restore --mmap 1 did not map the bundle"
  exit 1
}

for reader in served served_mmap restored restored_mmap; do
  diff "$WORK/offline.csv" "$WORK/$reader.csv" || {
    echo "FAIL: $reader answers differ from offline query verb"
    exit 1
  }
done
echo "ok: served and restored answers byte-identical to offline query"

# ---------------------------------------------------------------------------
echo "== part 2: kill -9 + resume from rotated snapshot == unbroken ingest"

awk 'BEGIN {
  print "id,text";
  srand(42);
  for (i = 0; i < 3000; i++) printf "%d,\n", int(rand() * 500);
}' > "$WORK/full.csv"
head -n 2001 "$WORK/full.csv" > "$WORK/part_a.csv"          # header + 2000
{ head -n 1 "$WORK/full.csv"; tail -n +2002 "$WORK/full.csv"; } \
  > "$WORK/part_b.csv"                                       # header + 1000
awk 'BEGIN { print "id,text"; for (i = 0; i < 500; i++) printf "%d,\n", i; }' \
  > "$WORK/keys.csv"

# Unbroken offline reference with the daemon's default cms geometry.
"$CLI" snapshot --trace "$WORK/full.csv" --out "$WORK/ref.bin" \
  --sketch cms > /dev/null
"$CLI" restore --in "$WORK/ref.bin" --trace "$WORK/keys.csv" \
  2>/dev/null > "$WORK/unbroken.csv"

"$SERVE" $SERVE_LISTEN --sketch cms --snapshot-dir "$WORK/snaps" \
  > "$WORK/serve_a.log" 2>&1 &
SERVE_PID=$!
resolve_target "$WORK/serve_a.log"
wait_ready
"$CLIENT" $TARGET ingest --trace "$WORK/part_a.csv" > /dev/null
"$CLIENT" $TARGET snapshot > /dev/null
# Ingested but never snapshotted: these arrivals die with the process and
# are re-sent after the restart.
"$CLIENT" $TARGET ingest --trace "$WORK/part_b.csv" > /dev/null
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

[ -f "$WORK/snaps/snapshot-000001.bin" ] || {
  echo "FAIL: no rotated snapshot on disk after kill -9"
  exit 1
}

"$SERVE" $SERVE_LISTEN --sketch cms --snapshot-dir "$WORK/snaps" \
  > "$WORK/serve_b.log" 2>&1 &
SERVE_PID=$!
resolve_target "$WORK/serve_b.log"
wait_ready
grep -q "resuming from" "$WORK/serve_b.log" || {
  echo "FAIL: restarted daemon did not resume from the rotated snapshot"
  exit 1
}
"$CLIENT" $TARGET ingest --trace "$WORK/part_b.csv" > /dev/null
"$CLIENT" $TARGET query --trace "$WORK/keys.csv" \
  > "$WORK/resumed.csv"
"$CLIENT" $TARGET shutdown > /dev/null
wait "$SERVE_PID"

diff "$WORK/unbroken.csv" "$WORK/resumed.csv" || {
  echo "FAIL: resumed counts differ from unbroken ingestion"
  exit 1
}
echo "ok: crash recovery matches unbroken ingestion exactly"
echo "PASS"
