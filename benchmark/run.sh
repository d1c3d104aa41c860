#!/usr/bin/env bash
# The one command: build the real tools from the repository's workspace and
# the harness from its own, side by side in one target directory, then run
# the harness with the caller's arguments. Compiler output goes to stderr;
# stdout carries only the harness's results.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p numa-tools >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hpcd-bench" "$@"
