#!/bin/sh
# The operation lines of `rsat`'s usage text: every registered operation
# (the names listed in the "operations (...)" header, control verbs
# excluded) gets one line holding its name, at least one space, then its
# synopsis. Usage: usage_ops.sh <rsat>
RSAT="$1"
fail() { echo "FAIL usage_ops: $*"; exit 1; }

TEXT=$("$RSAT" 2>&1)
HEADER=$(printf '%s\n' "$TEXT" | grep '^operations (')
[ -n "$HEADER" ] || fail "no operations header"
NAMES=$(printf '%s\n' "$HEADER" | sed -e 's/.*: //' -e 's/):$//' | tr '|' '\n' |
  grep -v -x -e cancel -e drain -e stats -e metrics)
[ -n "$NAMES" ] || fail "no operation names in: $HEADER"
BODY=$(printf '%s\n' "$TEXT" | sed -n '/^operations (/,/^common request options/p' |
  sed -e '1d' -e '$d')
for name in $NAMES; do
  printf '%s\n' "$BODY" | grep -q "^  $name  *[^ ]" ||
    fail "no '$name <synopsis>' line in:
$BODY"
done
printf '%s\n' "$BODY" | while IFS= read -r line; do
  printf '%s\n' "$line" | grep -q '^  [a-z][a-z]*  *[^ ]' ||
    fail "operation line without a name/synopsis space: '$line'"
done || exit 1
echo "PASS usage_ops"
