#!/usr/bin/env bash
# Runs the named top-level tests (or fuzz targets' seeds) in the given
# packages, and fails unless every name ran and passed: a renamed or
# deleted test cannot turn a CI step into a silent no-op.
#
# Usage: .github/scripts/listed-tests.sh "TestA TestB FuzzC" PKG...
set -euo pipefail
names=$1
shift
out=$(mktemp)
go test -json -count=1 -run "^($(tr ' ' '|' <<<"$names"))\$" "$@" |
	tee "$out" | jq -j 'select(.Action == "output") | .Output'
status=0
for t in $names; do
	if ! jq -n -e --arg t "$t" 'any(inputs; .Action == "pass" and .Test == $t)' "$out" >/dev/null; then
		echo "listed test $t did not run and pass in $*" >&2
		status=1
	fi
done
exit $status
