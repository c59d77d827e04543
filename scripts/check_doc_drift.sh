#!/usr/bin/env bash
# Doc-drift gate: the README's command listings must cover what the
# binaries actually accept.  For every CLI this dumps the real --help
# output and fails if it advertises a flag (or, for euno_repro, an
# experiment name) that README.md never mentions — so a new subcommand
# or flag cannot land without its documentation.  It also diffs the
# lib/ and docs/ directory listings against docs/ARCHITECTURE.md's
# module index, so a new library or doc cannot land unindexed.
#
# Run from the repo root after `dune build @all`:
#   scripts/check_doc_drift.sh
set -u
cd "$(dirname "$0")/.."

BIN=_build/default/bin
fail=0

mention() {
  # Word-ish match: '--json' must not be satisfied by '--jsonl'.
  grep -Eq -- "$1([^a-z-]|\$)" README.md
}

check_flags() {
  local name="$1"
  shift
  local help flag
  help="$("$@" 2>/dev/null)"
  if [ -z "$help" ]; then
    echo "doc drift: could not get help output from $name" >&2
    fail=1
    return
  fi
  for flag in $(printf '%s\n' "$help" | grep -oE -- '--[a-z][a-z-]*' | sort -u); do
    case "$flag" in
    --help | --version) continue ;;
    esac
    if ! mention "$flag"; then
      echo "doc drift: $name accepts '$flag' but README.md does not document it" >&2
      fail=1
    fi
  done
}

check_flags euno_repro "$BIN/euno_repro.exe" --help=plain
check_flags euno_schema_check "$BIN/euno_schema_check.exe" --help
check_flags euno_lint "$BIN/euno_lint.exe" --help

# Every experiment euno_repro's EXPERIMENT enum accepts must appear in the
# README synopsis.  The enum is printed by the invalid-value error, one
# quoted name each.
experiments="$("$BIN/euno_repro.exe" __nosuch__ 2>&1 | grep -oE "'[a-z0-9-]+'" | tr -d "'" | sort -u)"
if [ -z "$experiments" ]; then
  echo "doc drift: could not extract euno_repro's experiment list" >&2
  fail=1
fi
for exp in $experiments; do
  case "$exp" in
  __nosuch__) continue ;;
  esac
  if ! grep -Eq "(^|[^a-z0-9-])$exp([^a-z0-9-]|\$)" README.md; then
    echo "doc drift: euno_repro experiment '$exp' is not documented in README.md" >&2
    fail=1
  fi
done

# Module-index drift: docs/ARCHITECTURE.md carries a per-library module
# index ('### lib/<name> — ...' sections).  A new lib/ directory must get
# its section, and every docs/*.md file must be reachable from the
# architecture overview, or the doc tree silently forks from the code.
for dir in lib/*/; do
  name="$(basename "$dir")"
  if ! grep -Eq "^### lib/$name( |$)" docs/ARCHITECTURE.md; then
    echo "doc drift: lib/$name has no '### lib/$name' section in docs/ARCHITECTURE.md" >&2
    fail=1
  fi
done
for doc in docs/*.md; do
  base="$(basename "$doc")"
  case "$base" in
  ARCHITECTURE.md) continue ;;
  esac
  if ! grep -q "$base" docs/ARCHITECTURE.md; then
    echo "doc drift: $doc is never referenced from docs/ARCHITECTURE.md" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "doc-drift gate FAILED: update README.md's command listings" >&2
  exit 1
fi
echo "doc-drift gate passed: README.md, ARCHITECTURE.md module index, and docs/ are in sync"
