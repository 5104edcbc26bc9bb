#!/bin/sh
# Non-test Go lines per package under internal/ and cmd/ (no _test.go
# files, no testdata fixtures), then the total: the number a CHANGES.md
# entry quotes, from `make loc` instead of by hand.
set -eu
cd "$(dirname "$0")/.."
find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u |
while read -r dir; do
	printf '%6d  %s\n' "$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" "$dir"
done
printf '%6d  total\n' "$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"
