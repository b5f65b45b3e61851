#!/bin/sh
# CLI sketch-kind matrix (registered as ctest opthash_cli_kinds_e2e):
# every `--sketch` kind, plain and (except ams) windowed with
# `--windows 3 --window 2`, goes through the full checkpoint lifecycle
#
#   snapshot            fresh checkpoint from trace A
#   snapshot --in       resume it and ingest trace B
#   restore             summary, with and without --mmap 1
#   restore --trace     per-id estimates, with and without --mmap 1
#
# and the transcript (stdout, stderr, exit code of every command, plus
# the checksum of every checkpoint written) must match the checked-in
# golden byte for byte, with the work-dir path normalized to <work>.
# The golden pins today's answers, notices and checkpoint bytes, so any
# change to how a kind is dispatched shows up as a diff.
#
# Usage: cli_kinds_e2e_test.sh CLI WORKDIR GOLDEN [--update]
# With --update the transcript overwrites GOLDEN instead of being
# compared against it.
set -eu

CLI="$1"; WORK="$2"; GOLDEN="$3"; MODE="${4:-}"

rm -rf "$WORK"
mkdir -p "$WORK"
OUT="$WORK/transcript.txt"
: > "$OUT"

printf 'id,text\n1,a\n2,b\n1,c\n3,d\n1,e\n4,f\n2,g\n' > "$WORK/a.csv"
printf 'id,text\n2,h\n5,i\n1,j\n2,k\n6,l\n' > "$WORK/b.csv"
printf 'id,text\n1,q\n2,q\n3,q\n5,q\n9,q\n1,q\n' > "$WORK/q.csv"

normalize() {
  sed "s|$WORK|<work>|g" "$1"
}

# run ARGS...: appends one command's normalized transcript.
run() {
  echo "== $*" | sed "s|$WORK|<work>|g" >> "$OUT"
  set +e
  "$CLI" "$@" > "$WORK/stdout" 2> "$WORK/stderr"
  code=$?
  set -e
  normalize "$WORK/stdout" >> "$OUT"
  echo "-- stderr" >> "$OUT"
  normalize "$WORK/stderr" >> "$OUT"
  echo "-- exit $code" >> "$OUT"
}

checksum() {
  if [ -f "$1" ]; then
    echo "-- cksum $(basename "$1") $(cksum < "$1")" >> "$OUT"
  else
    echo "-- cksum $(basename "$1") missing" >> "$OUT"
  fi
}

lifecycle() {
  name="$1"; shift
  fresh="$WORK/$name.fresh.bin"
  resumed="$WORK/$name.resumed.bin"
  run snapshot --trace "$WORK/a.csv" --out "$fresh" "$@"
  checksum "$fresh"
  run snapshot --in "$fresh" --trace "$WORK/b.csv" --out "$resumed"
  checksum "$resumed"
  run restore --in "$resumed"
  run restore --in "$resumed" --mmap 1
  run restore --in "$resumed" --trace "$WORK/q.csv"
  run restore --in "$resumed" --mmap 1 --trace "$WORK/q.csv"
}

for kind in cms countsketch ams lcms mg ss; do
  lifecycle "$kind" --sketch "$kind" --width 8 --depth 2 --capacity 3 \
    --heavy 2 --buckets 16
  if [ "$kind" != ams ]; then
    lifecycle "windowed-$kind" --sketch "$kind" --width 8 --depth 2 \
      --capacity 3 --heavy 2 --buckets 16 --windows 3 --window 2
  fi
done

# The two refusals every kind dispatch shares: ams cannot be windowed,
# and an unknown kind name is rejected.
run snapshot --trace "$WORK/a.csv" --out "$WORK/refused.bin" \
  --sketch ams --windows 3 --window 2
run snapshot --trace "$WORK/a.csv" --out "$WORK/refused.bin" \
  --sketch nosuch

if [ "$MODE" = "--update" ]; then
  cp "$OUT" "$GOLDEN"
  echo "golden updated: $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL: CLI kind-matrix transcript differs from $GOLDEN"
  exit 1
fi
echo "PASS: CLI kind-matrix transcript matches the golden"
