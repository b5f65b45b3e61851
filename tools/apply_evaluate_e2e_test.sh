#!/bin/sh
# `apply` and `evaluate` end to end (registered as ctest
# opthash_cli_apply_evaluate_e2e). For each bundle format, `opthash_cli
# train` fits an rf bundle, then `apply` ingests one arrival trace into it
# with 1 and with 4 threads:
#
#   - the two output bundles must be byte-identical (cmp): sharded ingest
#     folds the workers' bucket deltas back in worker order, so the
#     thread count never shows in the counters;
#   - `evaluate` must print the same metrics for both.
#
# Usage: apply_evaluate_e2e_test.sh CLI WORKDIR
set -eu

CLI="$1"; WORK="$2"

rm -rf "$WORK"
mkdir -p "$WORK"

awk 'BEGIN {
  print "id,text";
  for (i = 0; i < 300; i++) {
    id = (i % 11 == 0) ? i % 5 : 100 + i % 70;
    printf "%d,word%d query %d\n", id, id % 9, id;
  }
}' > "$WORK/prefix.csv"
# Stored ids and ids the table never saw, over many 256-item blocks.
awk 'BEGIN {
  print "id,text";
  srand(7);
  for (i = 0; i < 6000; i++) {
    id = int(rand() * 260);
    printf "%d,word%d query %d\n", id, id % 9, id;
  }
}' > "$WORK/stream.csv"

for format in text binary; do
  model="$WORK/model.$format"
  "$CLI" train --trace "$WORK/prefix.csv" --out "$model" --buckets 80 \
    --solver dp --classifier rf --format "$format" > /dev/null
  for threads in 1 4; do
    "$CLI" apply --model "$model" --trace "$WORK/stream.csv" \
      --out "$WORK/applied$threads.$format" --threads "$threads" \
      --block-size 256 > /dev/null
    "$CLI" evaluate --model "$WORK/applied$threads.$format" \
      --trace "$WORK/stream.csv" > "$WORK/evaluate$threads.$format.txt"
  done
  if cmp -s "$model" "$WORK/applied1.$format"; then
    echo "FAIL: apply left the $format bundle unchanged"
    exit 1
  fi
  cmp "$WORK/applied1.$format" "$WORK/applied4.$format" || {
    echo "FAIL: 4-thread apply wrote a different $format bundle"
    exit 1
  }
  grep -q "average absolute error" "$WORK/evaluate1.$format.txt" || {
    echo "FAIL: evaluate printed no metrics for the $format bundle"
    exit 1
  }
  diff "$WORK/evaluate1.$format.txt" "$WORK/evaluate4.$format.txt" || {
    echo "FAIL: evaluate differs between the 1- and 4-thread $format bundles"
    exit 1
  }
  echo "ok: $format bundles identical at 1 and 4 apply threads"
done
echo "PASS"
