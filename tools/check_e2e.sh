#!/usr/bin/env bash
# End-to-end CLI gate (ctest `e2e_cli`, also run in CI): generate a
# deterministic FASTA reference + FASTQ read set with asmcap_testgen, run
# asmcap_search over them, and diff the DETERMINISTIC output columns
# (read, status, matches, hits — `cut -f1-4`) against the committed golden
# file tests/golden/e2e_search.tsv. The latency/energy columns are
# deterministic doubles of the cost model but may differ in the last ULP
# across compilers/ISAs (FMA contraction), so they are excluded from the
# byte-compare; the decision digest equality is separately enforced by
# tests/test_stream_reader.cpp and bench_ingest.
#
# usage: check_e2e.sh <asmcap_testgen> <asmcap_search> <golden-dir>
# Regenerate the golden after an intentional decision change with:
#   ASMCAP_UPDATE_GOLDEN=1 tools/check_e2e.sh build/asmcap_testgen \
#       build/asmcap_search tests/golden
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <asmcap_testgen> <asmcap_search> <golden-dir>" >&2
  exit 2
fi
TESTGEN=$1
SEARCH=$2
GOLDEN_DIR=$3
GOLDEN="$GOLDEN_DIR/e2e_search.tsv"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Keep these flags in lockstep with the committed golden (docs/cli.md has
# the schema; the run is small enough for the sanitizer CI legs too).
"$TESTGEN" "$WORK/ref.fa" "$WORK/reads.fq" \
  --width 128 --records 2 --tiles 6 --reads 24 --seed 7 --ambiguous
"$SEARCH" \
  --reference "$WORK/ref.fa" --reads "$WORK/reads.fq" \
  --width 128 --array-rows 64 --arrays 4 --shards 2 \
  --threshold 12 --workers 2 --chunk 8 \
  --output "$WORK/out.tsv" 2> "$WORK/search.log"

cut -f1-4 "$WORK/out.tsv" > "$WORK/out.cut.tsv"

if [ "${ASMCAP_UPDATE_GOLDEN:-0}" = "1" ]; then
  mkdir -p "$GOLDEN_DIR"
  cp "$WORK/out.cut.tsv" "$GOLDEN"
  echo "check_e2e: regenerated $GOLDEN"
  exit 0
fi

if [ ! -f "$GOLDEN" ]; then
  echo "check_e2e: missing golden file $GOLDEN" >&2
  echo "check_e2e: run with ASMCAP_UPDATE_GOLDEN=1 to create it" >&2
  exit 1
fi

if ! diff -u "$GOLDEN" "$WORK/out.cut.tsv"; then
  echo "check_e2e: FAIL — deterministic columns diverge from $GOLDEN" >&2
  echo "check_e2e: if the decision change is intentional, regenerate with" >&2
  echo "check_e2e:   ASMCAP_UPDATE_GOLDEN=1 $0 $TESTGEN $SEARCH $GOLDEN_DIR" >&2
  exit 1
fi

# Pipe input: the same reads fed through stdin ('--reads -') must decide
# exactly like the file run (a pipe cannot be rewound, so this gates the
# reader's seek-free format and gzip sniffing).
cat "$WORK/reads.fq" | "$SEARCH" \
  --reference "$WORK/ref.fa" --reads - \
  --width 128 --array-rows 64 --arrays 4 --shards 2 \
  --threshold 12 --workers 2 --chunk 8 \
  --output "$WORK/pipe.tsv" 2>> "$WORK/search.log"
cut -f1-4 "$WORK/pipe.tsv" > "$WORK/pipe.cut.tsv"
if ! diff -u "$GOLDEN" "$WORK/pipe.cut.tsv"; then
  echo "check_e2e: FAIL — '--reads -' (stdin pipe) diverges from $GOLDEN" >&2
  exit 1
fi

# The ambiguity warning (docs/cli.md N->A policy) must surface: the
# generated read set injects 'N's via --ambiguous.
if ! grep -q "ambiguous bases" "$WORK/search.log"; then
  echo "check_e2e: FAIL — expected an ambiguous-bases warning on stderr" >&2
  cat "$WORK/search.log" >&2
  exit 1
fi

# JSON mode smoke: same run, one JSON object per read, same decisions.
"$SEARCH" \
  --reference "$WORK/ref.fa" --reads "$WORK/reads.fq" \
  --width 128 --array-rows 64 --arrays 4 --shards 2 \
  --threshold 12 --workers 2 --chunk 8 --format json \
  --output "$WORK/out.json" 2>> "$WORK/search.log"
READS=$(tail -n +2 "$WORK/out.tsv" | wc -l)
JSON_LINES=$(wc -l < "$WORK/out.json")
if [ "$READS" != "$JSON_LINES" ]; then
  echo "check_e2e: FAIL — $JSON_LINES JSON lines for $READS reads" >&2
  exit 1
fi
if grep -qv '^{' "$WORK/out.json"; then
  echo "check_e2e: FAIL — non-JSON line in $WORK/out.json" >&2
  exit 1
fi

# A reference that yields no segment (a FASTA holding only a header)
# must reach the CLI's own error: exit 1, "reference yielded no segments".
printf '>empty\n' > "$WORK/empty.fa"
set +e
"$SEARCH" --reference "$WORK/empty.fa" --reads "$WORK/reads.fq" \
  --width 128 --output "$WORK/empty.tsv" 2> "$WORK/empty.log"
EMPTY_EXIT=$?
set -e
if [ "$EMPTY_EXIT" != "1" ] ||
   ! grep -q "reference yielded no segments" "$WORK/empty.log"; then
  echo "check_e2e: FAIL — empty reference exited $EMPTY_EXIT, expected 1" \
       "with 'reference yielded no segments'" >&2
  cat "$WORK/empty.log" >&2
  exit 1
fi

echo "check_e2e: OK ($READS reads, deterministic columns match golden, file and stdin pipe, empty reference rejected)"
