#!/usr/bin/env bash
# The benchmark's one command: build the product binaries and the driver
# from source, then run the driver with whatever arguments were given.
#
#   benchmark/run.sh [--seed S] [--smoke] [--record]        every workload
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Builds go to $CARGO_TARGET_DIR when it is set; otherwise the product
# goes to target/ and the driver to benchmark/target/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

product_dir="${CARGO_TARGET_DIR:-target}"
driver_dir="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p oris-cli \
    --bin scoris_n --bin makedb
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$driver_dir"

if [ "${1:-}" = compare ]; then
    exec "$driver_dir/release/oris-benchmark" "$@"
fi
exec "$driver_dir/release/oris-benchmark" --bin-dir "$product_dir/release" "$@"
