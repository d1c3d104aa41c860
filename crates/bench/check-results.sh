#!/usr/bin/env bash
# Reproduction guard: every regenerator's stdout must be byte-identical to
# the checked-in results/<name>.txt. The simulated quantities are
# deterministic (sequential execution, process-global jitter seed), so any
# difference is a behaviour change, not noise. ~30 s in release.
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo build --release -p numa-bench
BIN="${CARGO_TARGET_DIR:-target}/release"
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

for name in table1 fig1 bias_demo table2 fig3_lulesh fig4_7_amg \
    fig8_9_blackscholes fig10_umt ablations; do
    "$BIN/$name" > "$OUT"
    if ! cmp "$OUT" "results/$name.txt"; then
        echo "check-results: results/$name.txt differs from \`$name\` output" >&2
        diff "$OUT" "results/$name.txt" | head -n 20 >&2 || true
        exit 1
    fi
    echo "check-results: $name ok"
done
