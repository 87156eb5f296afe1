#!/usr/bin/env sh
# The ruler simplicity PRs report before/after from: non-test Go lines that
# are neither blank nor a // comment, per package directory under internal/
# (plus the apollo facade), and in total.
set -eu
cd "$(dirname "$0")/.."
find internal apollo -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
    !/^[ \t]*($|\/\/)/ { d = FILENAME; sub(/\/[^\/]*$/, "", d); n[d]++; total++ }
    END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", total }' | sort -k2
