#!/usr/bin/env bash
# Builds the release `vantage` binary and the benchmark from source, then
# runs the benchmark from the repository root:
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both builds go to $CARGO_TARGET_DIR (default: target). Cargo's output
# goes to stderr; the benchmark's result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --locked --quiet -p vantage-cli >&2
cargo build --release --locked --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --vantage "$CARGO_TARGET_DIR/release/vantage" "$@"
