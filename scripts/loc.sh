#!/usr/bin/env bash
# loc.sh — lines of Go per package: non-test and test files apart, the
# benchmark module apart from the root module. These are the counts ROADMAP's
# "Net state" line and a simplicity PR's acceptance quote (wc -l lines,
# comments and blanks included, over the files git tracks or would track).
#
# Usage: scripts/loc.sh [package-dir ...]    (default: every package)
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard -- '*.go' |
while read -r f; do
	[ -f "$f" ] && printf '%s %s\n' "$(wc -l < "$f")" "$f"
done |
awk -v want="$*" '
BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) { sub(/\/$/, "", w[i]); only[w[i]] = 1 } }
{
	dir = $2; if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	if (n && !(dir in only)) next
	mod = (dir ~ /^benchmark(\/|$)/) ? "benchmark" : "root"
	kind = ($2 ~ /_test\.go$/) ? "test" : "code"
	lines[dir, kind] += $1; total[mod, kind] += $1; dirs[dir] = 1
}
END {
	printf "%-32s %9s %9s\n", "package", "non-test", "test"
	cmd = "sort"
	for (d in dirs) printf "%-32s %9d %9d\n", d, lines[d, "code"], lines[d, "test"] | cmd
	close(cmd)
	if (!n) {
		printf "%-32s %9d %9d\n", "total: root module", total["root", "code"], total["root", "test"]
		printf "%-32s %9d %9d\n", "total: benchmark module", total["benchmark", "code"], total["benchmark", "test"]
	}
}'
