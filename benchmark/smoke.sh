#!/usr/bin/env bash
# Smoke run for a CI hook: every workload at 5 % of its op counts, untraced.
# Proves the harness builds, the daemon comes up pinned, every answer checks
# out and every restart lists what was acknowledged; the numbers it prints
# mean nothing at this size. Exits non-zero on any failed check.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
bash benchmark/run.sh --fraction 0.05 "$@"
