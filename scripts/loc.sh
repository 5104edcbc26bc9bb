#!/bin/sh
# Non-test Go lines per package under internal/ and cmd/ (no _test.go
# files, no testdata fixtures), then the total: the number a CHANGES.md
# entry quotes, from `make loc` instead of by hand. With a base ref
# (`make loc BASE=<ref>`, i.e. `loc.sh <ref>`) the same count is taken of
# that commit's internal/ and cmd/ and every line shows base, now and
# the delta, so a subtraction PR's numbers come from one command.
set -eu
export LC_ALL=C # one collation for sort and join
cd "$(dirname "$0")/.."

# count <root>: "<lines> <package>" per package under <root>, then the total.
count() (
	cd "$1"
	find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u |
	while read -r dir; do
		echo "$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $dir"
	done
	echo "$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l) total"
)

if [ $# -eq 0 ]; then
	count . | awk '{ printf "%6d  %s\n", $1, $2 }'
	exit
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$1" internal cmd | tar -x -C "$tmp"
count "$tmp" >"$tmp/base"
count . >"$tmp/now"
# Both lists are sorted by package with "total" last; a package on one
# side only counts 0 on the other.
join -1 2 -2 2 -a 1 -a 2 -e 0 -o 0,1.1,2.1 "$tmp/base" "$tmp/now" |
awk '{ printf "%6d -> %6d  %+5d  %s\n", $2, $3, $3 - $2, $1 }'
