#!/usr/bin/env bash
# Hot-path monomorphism gate: the simulator's per-effect modules must not
# call OCaml's polymorphic comparison or hashing primitives.  An
# unannotated comparison on ints (a heap key, an abort code, a sort on an
# index) compiles to a C call such as caml_lessthan instead of one machine
# compare, which once doubled the cost of every scheduler turn.  This
# disassembles each module's native object and fails on any relocation to
# those primitives, naming the module and symbol.
#
# Run from the repo root after `dune build` (or pass another dune build
# directory, e.g. the release one perfbench uses):
#   scripts/check_mono_hot_path.sh [BUILD_DIR]
set -u
cd "$(dirname "$0")/.."

BUILD="${1:-_build}/default/lib"
MODULES="sim/Sched sim/Machine sim/Line_table sim/Txn sim/Rng htm/Htm sync/Spinlock sync/Backoff"
PRIMS='caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal|hash)\b'

if ! command -v objdump > /dev/null; then
  echo "mono hot path: objdump not found" >&2
  exit 2
fi

fail=0
for m in $MODULES; do
  lib="${m%%/*}"
  obj=$(ls "$BUILD/$lib"/.euno_"$lib".objs/native/euno_"$lib"__"${m#*/}".o 2> /dev/null)
  if [ -z "$obj" ]; then
    echo "mono hot path: no native object for $m under $BUILD (build first)" >&2
    fail=1
    continue
  fi
  hits=$(objdump -dr "$obj" | grep -oE "R_[A-Z0-9_]+[[:space:]]+$PRIMS" |
    awk '{print $2}' | sort | uniq -c | awk '{printf "  %s (%d sites)\n", $2, $1}')
  if [ -n "$hits" ]; then
    echo "mono hot path: $m calls polymorphic primitives:" >&2
    printf '%s\n' "$hits" >&2
    fail=1
  fi
done
if [ "$fail" -eq 0 ]; then
  echo "mono hot path: no polymorphic compare/hash in $MODULES"
fi
exit "$fail"
