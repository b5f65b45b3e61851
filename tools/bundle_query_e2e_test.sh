#!/bin/sh
# Offline bundle queries (registered as ctest opthash_cli_bundle_query_e2e):
# for each classifier, `opthash_cli train` fits a small bundle from a
# texted prefix trace, then `opthash_cli query` answers a trace whose rows
# mix every routing case of a learned bundle:
#
#   stored id,  blank text     table hit
#   stored id,  texted         table hit (the text is never read)
#   unseen id,  blank text     table miss on the blank payload
#   unseen id,  texted         table miss, featurized and classified
#
# The transcript (train output, the query CSV at the default block size,
# exit codes) must match the checked-in golden byte for byte, with the
# work-dir path normalized to <work>. Every other block size and the
# binary encoding of the same bundle must print the identical CSV, so
# mixed blocks of every shape route row by row exactly like whole ones.
#
# Usage: bundle_query_e2e_test.sh CLI WORKDIR GOLDEN [--update]
# With --update the transcript overwrites GOLDEN instead of being
# compared against it.
set -eu

CLI="$1"; WORK="$2"; GOLDEN="$3"; MODE="${4:-}"

rm -rf "$WORK"
mkdir -p "$WORK"
OUT="$WORK/transcript.txt"
: > "$OUT"

# The prefix text of id: the six heavy ids get distinctive word pairs,
# the tail shares a few topic words.
TEXT_OF='function text_of(id) {
  if (id <= 6) return w[id] " " w[id + 2];
  t = w[id % 8 + 1] " " w[(id * 3) % 8 + 1];
  if (id % 5 == 0) t = t " " w[(id / 5) % 8 + 1];
  return t;
}'

# Prefix: ids 1..40 with skewed counts.
awk "$TEXT_OF"'
BEGIN {
  split("red blue green fast slow big small loud", w, " ");
  print "id,text";
  for (id = 1; id <= 40; ++id) {
    reps = (id <= 6) ? 30 - 4 * id : (id % 4) + 1;
    for (r = 0; r < reps; ++r) print id "," text_of(id);
  }
}' > "$WORK/prefix.csv"

# Queries: ids 1..64 (41..64 never seen), interleaved so every block
# mixes hits and misses. Every third row is blank; the rest carry the
# prefix text of some other id (heavy or tail), so texted misses spread
# over several buckets.
awk "$TEXT_OF"'
BEGIN {
  split("red blue green fast slow big small loud", w, " ");
  print "id,text";
  for (k = 0; k < 64; ++k) {
    id = (k * 37) % 64 + 1;
    if (k % 3 == 0) print id ",";
    else print id "," text_of(k % 12 + 1);
  }
}' > "$WORK/queries.csv"

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

# same_answers LABEL ARGS...: the query CSV of ARGS must equal the last
# recorded default-block answer.
same_answers() {
  label="$1"; shift
  set +e
  "$CLI" "$@" > "$WORK/variant" 2> "$WORK/stderr"
  code=$?
  set -e
  if [ "$code" -eq 0 ] && cmp -s "$WORK/reference" "$WORK/variant"; then
    echo "-- $label: identical" >> "$OUT"
  else
    echo "-- $label: DIFFERS (exit $code)" >> "$OUT"
  fi
}

for classifier in rf cart logreg none; do
  text="$WORK/$classifier.txt"
  binary="$WORK/$classifier.bin"
  run train --trace "$WORK/prefix.csv" --out "$text" --buckets 24 \
    --solver dp --classifier "$classifier" --vocab 8
  run train --trace "$WORK/prefix.csv" --out "$binary" --buckets 24 \
    --solver dp --classifier "$classifier" --vocab 8 --format binary
  run query --model "$text" --trace "$WORK/queries.csv"
  cp "$WORK/stdout" "$WORK/reference"
  for block in 1 2 5 7; do
    same_answers "text --block-size $block" query --model "$text" \
      --trace "$WORK/queries.csv" --block-size "$block"
    same_answers "binary --block-size $block" query --model "$binary" \
      --trace "$WORK/queries.csv" --block-size "$block"
  done
  same_answers "binary" query --model "$binary" --trace "$WORK/queries.csv"
done

if [ "$MODE" = "--update" ]; then
  cp "$OUT" "$GOLDEN"
  echo "golden updated: $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL: bundle query transcript differs from $GOLDEN"
  exit 1
fi
echo "PASS: bundle query transcript matches the golden"
