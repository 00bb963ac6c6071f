#!/usr/bin/env bash
# The repo's benchmark, one command: builds release, runs each workload in
# its own child process, checks every output, prints every metric as
# `workload metric value unit`. See benchmark/README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--rounds N | --seconds S]
#                    [--trace 0|1] [--agree]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ccl-benchmark" "$@"
