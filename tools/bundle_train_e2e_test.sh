#!/bin/sh
# Trained bundle bytes (registered as ctest opthash_cli_bundle_train_e2e):
# `opthash_cli train` fits a bundle for every combination of
#
#   classifier   rf, cart, logreg, none
#   solver       bcd at --lambda 1, bcd at --lambda 0.5, dp at --lambda 1
#   format       binary, text
#
# from one prefix of a few hundred ids whose texts draw on a handful of
# words. Inside a tree node most bag-of-words columns are then constant
# or two-valued, while the labels (learned buckets) span dozens of
# values, so split search meets long runs of tied feature values. The
# transcript (train stdout, stderr, exit code and the checksum of every
# bundle written) must match the checked-in golden byte for byte, with
# the work-dir path normalized to <work>. The golden pins every fitted
# tree, forest, assignment and bundle byte, so a training change that
# claims to keep its answers shows up as a diff if it does not.
#
# Usage: bundle_train_e2e_test.sh CLI WORKDIR GOLDEN [--update]
# With --update the transcript overwrites GOLDEN instead of being
# compared against it.
set -eu

CLI="$1"; WORK="$2"; GOLDEN="$3"; MODE="${4:-}"

rm -rf "$WORK"
mkdir -p "$WORK"
OUT="$WORK/transcript.txt"
: > "$OUT"

# Prefix: ids 1..320 with skewed, often equal counts. Each text holds one
# to three words from six, sometimes a word twice.
awk '
BEGIN {
  split("north south east west up down", w, " ");
  print "id,text";
  for (id = 1; id <= 320; ++id) {
    reps = (id <= 12) ? 50 - 3 * id : 1 + (id * 13) % 7;
    t = w[id % 6 + 1];
    if (id % 3 != 0) t = t " " w[(id * 7) % 6 + 1];
    if (id % 5 == 0) t = t " " w[(id / 5) % 6 + 1];
    for (r = 0; r < reps; ++r) print id "," t;
  }
}' > "$WORK/prefix.csv"

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

for classifier in rf cart logreg none; do
  for solve in bcd:1 bcd:0.5 dp:1; do
    solver="${solve%:*}"; lambda="${solve#*:}"
    for format in binary text; do
      model="$WORK/$classifier-$solver-$lambda.$format"
      run train --trace "$WORK/prefix.csv" --out "$model" --buckets 400 \
        --solver "$solver" --lambda "$lambda" --classifier "$classifier" \
        --vocab 8 --format "$format"
      checksum "$model"
    done
  done
done

if [ "$MODE" = "--update" ]; then
  cp "$OUT" "$GOLDEN"
  echo "golden updated: $GOLDEN"
  exit 0
fi
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL: bundle train transcript differs from $GOLDEN"
  exit 1
fi
echo "PASS: bundle train transcript matches the golden"
