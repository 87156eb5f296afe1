#!/usr/bin/env sh
# The ruler simplicity PRs report before/after from: non-test Go lines that
# are neither blank nor a // comment, per package directory under internal/,
# and in total. The total splits three ways:
# reproduction is the paper's evaluation code (figures, the LDMS baseline,
# the Fig. 13 middleware engines, the Fig. 11 LSTM baseline, workload
# generators, trace replay), harness is the simulation layer tests run on,
# product is everything a daemon or the CLI can link (reach_test.go and
# verify.sh's layering check draw the same line). ROADMAP item 8's target is
# stated on product. Then the exported
# surface of the same files plus api/: package-level names (func, type, and
# the names a var/const/type block declares) and methods. Last, the knobs:
# settable config values are the exported fields of the product's exported
# struct types named Config or Options or ending in either, plus its exported
# With* option functions.
set -eu
cd "$(dirname "$0")/.."
find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
    !/^[ \t]*($|\/\/)/ { d = FILENAME; sub(/\/[^\/]*$/, "", d); n[d]++ }
    END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2 | awk '
    { print; total += $1 }
    $2 ~ /^internal\/(figures|ldms|middleware|workloads|trace|nn\/baseline)$/ { repro += $1; next }
    $2 ~ /^internal\/sim(\/scenario)?$/ { harness += $1; next }
    { product += $1 }
    END { printf "%7d product\n%7d reproduction\n%7d harness\n%7d total\n", product, repro, harness, total }'
find internal api -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
    FNR == 1 { block = 0 }
    /^func \([^)]*\) [A-Z]/ { methods++; next }
    /^(func|type|var|const) [A-Z]/ { names++; next }
    /^(var|const|type) \($/ { block = 1; next }
    /^\)/ { block = 0 }
    block && /^\t[A-Z][A-Za-z0-9_]*( |,|$)/ { names++ }
    END { printf "%7d exported package-level names\n%7d exported methods\n", names, methods }'
find internal -name '*.go' ! -name '*_test.go' | grep -vE '^internal/(figures|ldms|middleware|workloads|trace|sim|nn/baseline)/' | xargs awk '
    FNR == 1 { depth = 0; block = 0 }
    /^type \($/ { block = 1; next }
    block && /^\)/ { block = 0 }
    depth == 0 && (/^type ([A-Z][A-Za-z0-9_]*)?(Config|Options) struct \{$/ ||
        block && /^\t([A-Z][A-Za-z0-9_]*)?(Config|Options) struct \{$/) { depth = 1; next }
    depth == 1 && /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*( |$)/ {
        s = $0; fields++
        while (sub(/^\t?[A-Za-z0-9_]+, /, "", s)) fields++
    }
    depth > 0 { depth += gsub(/\{/, "{") - gsub(/\}/, "}") }
    /^func With[A-Z]/ { withs++ }
    END { printf "%7d settable config values (%d config fields, %d With* options)\n", fields + withs, fields, withs }'
