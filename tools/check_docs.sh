#!/usr/bin/env bash
# Docs gate (run by the CI `docs` job and available locally):
#   1. every relative markdown link in README.md and docs/*.md resolves to
#      a file or directory in the repository;
#   2. every public header of the engine's API surface carries a doc block
#      with an explicit thread-safety note (the contract the headers
#      promise in docs/architecture.md);
#   3. every flag the asmcap_search CLI accepts is documented in
#      docs/cli.md (the flag literals are greppable in both files, so a
#      new flag without a docs entry fails the gate).
set -u
cd "$(dirname "$0")/.."

fail=0

# ----------------------------------------------------------- link check --
for md in README.md docs/*.md; do
  [ -e "$md" ] || continue
  dir=$(dirname "$md")
  # Inline markdown links: [text](target). External URLs and pure anchors
  # are skipped; #section suffixes on file links are stripped.
  while IFS= read -r target; do
    case "$target" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path=${target%%#*}
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done

# ----------------------------------------------- header doc-block check --
headers="
src/asmcap/accelerator.h
src/asmcap/db_error.h
src/asmcap/sharded.h
src/asmcap/readmapper.h
src/asmcap/backend.h
src/asmcap/edam.h
src/asmcap/service.h
src/asmcap/service_error.h
src/asmcap/ingest.h
src/genome/stream_reader.h
src/align/kernels.h
src/util/thread_pool.h
src/util/thread_annotations.h
src/util/clock.h
"
for h in $headers; do
  if [ ! -e "$h" ]; then
    echo "MISSING HEADER: $h"
    fail=1
    continue
  fi
  # The file must open with a comment block...
  if ! sed -n '2p' "$h" | grep -q '^//'; then
    echo "MISSING DOC BLOCK: $h (no header comment after #pragma once)"
    fail=1
  fi
  # ...that states the thread-safety contract.
  if ! grep -q 'Thread-safety' "$h"; then
    echo "MISSING THREAD-SAFETY NOTE: $h"
    fail=1
  fi
done

# ------------------------------------------------ CLI flag coverage --
# Every "--flag" string literal the CLI parses must appear in the user
# guide. (The parser only compares against double-dash literals, so this
# grep is exactly the accepted flag set.)
if [ -e tools/asmcap_search.cpp ] && [ -e docs/cli.md ]; then
  while IFS= read -r flag; do
    if ! grep -q -- "$flag" docs/cli.md; then
      echo "UNDOCUMENTED FLAG: asmcap_search $flag missing from docs/cli.md"
      fail=1
    fi
  done < <(grep -oE '"--[a-z-]+"' tools/asmcap_search.cpp | tr -d '"' | sort -u)
else
  echo "MISSING: tools/asmcap_search.cpp or docs/cli.md"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "docs gate FAILED"
  exit 1
fi
echo "docs gate OK: links resolve, API headers carry doc blocks, CLI flags documented"
