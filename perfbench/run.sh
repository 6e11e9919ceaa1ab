#!/usr/bin/env bash
# Build the `parscan` binary and the benchmark from source, then run one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench: run from a parscan source checkout (Cargo.toml and crates/ missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin parscan >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --parscan "$CARGO_TARGET_DIR/release/parscan" "$@"
