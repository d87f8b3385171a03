#!/usr/bin/env sh
# Docs-consistency check, both ways:
#  - every metric name dump_metrics emits must appear in docs/METRICS.md as a
#    backticked token;
#  - every row of a `| name | meaning |` table in docs/METRICS.md must name
#    (first backticked token) a metric dump_metrics emits.
#
#   usage: check_metrics_docs.sh <dump_metrics-binary> <path/to/METRICS.md>
#
# Exits non-zero listing every UNDOCUMENTED and every STALE name. Run by
# ctest as `docs_metrics_consistency` (tools/CMakeLists.txt) and by CI.
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <dump_metrics-binary> <METRICS.md>" >&2
    exit 2
fi

dump_bin="$1"
docs="$2"

if [ ! -x "$dump_bin" ]; then
    echo "error: dump_metrics binary not found/executable: $dump_bin" >&2
    exit 2
fi
if [ ! -f "$docs" ]; then
    echo "error: docs file not found: $docs" >&2
    exit 2
fi

emitted=$("$dump_bin")

missing=0
total=0
for name in $emitted; do
    total=$((total + 1))
    if ! grep -q "\`$name\`" "$docs"; then
        echo "UNDOCUMENTED: $name (add it to $docs)"
        missing=$((missing + 1))
    fi
done

# First backticked token of each row of every `| name | meaning |` table.
rows=$(awk '
    /^\| name \| meaning \|/ { table = 1; next }
    !/^\|/ { table = 0; next }
    table && /^\|---/ { next }
    table && match($0, /`[^`]*`/) { print substr($0, RSTART + 1, RLENGTH - 2) }
' "$docs")

stale=0
for name in $rows; do
    if ! printf '%s\n' "$emitted" | grep -qxF "$name"; then
        echo "STALE: $name (documented in $docs but not emitted)"
        stale=$((stale + 1))
    fi
done

if [ "$missing" -ne 0 ] || [ "$stale" -ne 0 ]; then
    echo "docs-consistency FAILED: $missing of $total metrics missing from $docs, $stale documented rows not emitted"
    exit 1
fi
echo "docs-consistency OK: all $total emitted metrics documented in $docs, no stale rows"
