#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it with the given flags
# (see README.md). Run it from the repository root.
#
# The build goes to $CARGO_TARGET_DIR when that is set, else to
# target/benchmark. The target directory is passed explicitly: without it
# cargo would build into benchmark/target, which the workspace lint scans.
set -euo pipefail
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target/benchmark}" -- "$@"
