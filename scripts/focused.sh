#!/usr/bin/env bash
# Focused -run patterns select tests: scripts/focused.sh
#
# Reads every `go test -race -count=2 -run '<pattern>' <packages>` step of
# .github/workflows/ci.yml and fails when a pattern lists no test
# (`go test -list`) in a package the step names — or, for ./..., in any
# package. A pattern that matches nothing turns its rerun into a silent
# no-op, which a rename or a deletion can do without anyone noticing.
set -euo pipefail
cd "$(dirname "$0")/.."
steps=$(sed -n "s/^ *run: go test -race -count=2 -run '\([^']*\)' \(.*\)$/\1\t\2/p" .github/workflows/ci.yml)
[ -n "$steps" ] || { echo "focused.sh: no focused rerun found in ci.yml" >&2; exit 1; }
bad=0
while IFS=$'\t' read -r pattern packages; do
	for pkg in $packages; do
		listed=$(go test -list "$pattern" "$pkg")
		if ! grep -q '^\(Test\|Fuzz\|Example\)' <<<"$listed"; then
			echo "-run '$pattern' selects no test in $pkg" >&2
			bad=1
		fi
	done
done <<<"$steps"
exit $bad
