#!/usr/bin/env bash
# Non-test Go lines per package. `scripts/loc.sh > LOC.txt` snapshots
# them; `scripts/loc.sh -check` fails when a package is new or has grown
# past its line in LOC.txt ("least code" as a tracked trajectory).
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
	find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -printf '%h\n' | sort -u |
		while read -r dir; do
			echo "$dir $(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
		done
}
if [ "${1:-}" = -check ]; then
	count | awk 'NR == FNR { old[$1] = $2; next }
		!($1 in old) || $2 > old[$1] { print "LOC grew: " $1 ": " old[$1] " -> " $2; bad = 1 }
		END { exit bad }' LOC.txt -
else
	count
fi
