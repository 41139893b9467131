#!/usr/bin/env bash
# Go lines per package: non-test (its .s assembly included), then
# _test.go. `scripts/loc.sh > LOC.txt` snapshots them; `scripts/loc.sh
# -check` fails when a package is new, its non-test lines have grown
# past its line in LOC.txt, or LOC.txt still lists a package that is
# gone ("least code" as a tracked trajectory; test lines are tracked,
# not gated).
set -euo pipefail
cd "$(dirname "$0")/.."
lines() { find "$1" -maxdepth 1 \( -name '*.go' -o -name '*.s' \) "${@:2}" -exec cat {} + | wc -l; }
count() {
	find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -printf '%h\n' | sort -u |
		while read -r dir; do
			echo "$dir $(lines "$dir" ! -name '*_test.go') $(lines "$dir" -name '*_test.go')"
		done
}
if [ "${1:-}" = -check ]; then
	count | awk 'NR == FNR { old[$1] = $2; next }
		!($1 in old) || $2 > old[$1] { print "LOC grew: " $1 ": " old[$1] " -> " $2; bad = 1 }
		{ delete old[$1] }
		END { for (dir in old) { print "LOC.txt lists a package that is gone: " dir | "sort"; bad = 1 }; close("sort"); exit bad }' LOC.txt -
else
	count
fi
