#!/usr/bin/env bash
# Build the `qas` binary and the benchmark from source, then run one
# workload:  bash layerbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); spans and
# the serve tier's temporary state go to .bench_run. Run from the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin qas >&2
cargo build --release --offline --quiet --manifest-path layerbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/layerbench" --qas "$CARGO_TARGET_DIR/release/qas" "$@"
