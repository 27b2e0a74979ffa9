#!/usr/bin/env bash
# Builds vebo-perf (offline, release) and runs it with the given
# arguments from the repository root. This is the command BENCHMARK.json
# names; with no arguments it runs the whole suite.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --offline --release --quiet --manifest-path perf/Cargo.toml
exec "${CARGO_TARGET_DIR:-perf/target}/release/vebo-perf" "$@"
