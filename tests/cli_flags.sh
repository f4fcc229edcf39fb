#!/bin/sh
# The flag forms of `rsat analyze` and `rsat reduce` on a bare .ddg file:
# an unknown flag or a flag missing its value exits 2 with the usage text
# (like batch/serve/top), and `reduce -o` into an unwritable path reports
# the failure with a nonzero exit instead of claiming it wrote the file.
# Usage: cli_flags.sh <rsat>
RSAT="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
fail() { echo "FAIL cli_flags: $*"; exit 1; }

"$RSAT" dump fir8 > "$WORK/fir8.ddg" || fail "cannot dump fir8"

expect_usage() { # $@ = rsat arguments
  "$RSAT" "$@" > "$WORK/out" 2> "$WORK/err"
  code=$?
  [ "$code" = 2 ] || fail "'rsat $*' exited $code, expected 2"
  grep -q '^usage:' "$WORK/err" || fail "'rsat $*' printed no usage text"
}

expect_usage analyze "$WORK/fir8.ddg" --engin exact
expect_usage analyze "$WORK/fir8.ddg" --budget
expect_usage analyze "$WORK/fir8.ddg" --engine
expect_usage reduce "$WORK/fir8.ddg" --limits 4,8 --exat
expect_usage reduce "$WORK/fir8.ddg" --limits 4,8 -o

# The well-formed flag forms still work.
"$RSAT" analyze "$WORK/fir8.ddg" --engine exact --budget 5 --stats \
  > "$WORK/out" 2>&1 || fail "well-formed analyze failed: $(cat "$WORK/out")"
"$RSAT" reduce "$WORK/fir8.ddg" --limits 4,8 -o "$WORK/out.ddg" \
  > "$WORK/out" 2>&1 || fail "well-formed reduce failed: $(cat "$WORK/out")"
[ -s "$WORK/out.ddg" ] || fail "reduce -o wrote nothing"

# An unwritable -o target is an error, not "wrote ...".
"$RSAT" reduce "$WORK/fir8.ddg" --limits 4,8 -o "$WORK/missing/dir/out.ddg" \
  > "$WORK/out" 2> "$WORK/err"
code=$?
[ "$code" != 0 ] || fail "reduce -o into a missing directory exited 0"
grep -q '^wrote' "$WORK/out" && fail "reduce -o claimed a write that failed"
grep -q 'cannot write' "$WORK/err" || fail "reduce -o failure not reported"
echo "PASS cli_flags"
