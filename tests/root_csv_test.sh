#!/bin/sh
# Runs one figure/table binary in a temporary directory and checks that the
# CSV it writes equals the committed root CSV of the same name, byte for
# byte.
#
#   root_csv_test.sh <binary> <committed.csv>
set -e
BIN="$1"
EXPECTED="$2"
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT
cd "$WORKDIR"
"$BIN" > run.log 2>&1 || { cat run.log >&2; exit 1; }
cmp "$EXPECTED" "$(basename "$EXPECTED")"
