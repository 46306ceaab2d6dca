#!/usr/bin/env bash
# Runs one `cargo test --release -q` selection in five more proptest case
# streams (PROPTEST_SEED 1..=5), or once with `--once`, after checking
# that it selects at least one test and that every test filter given
# after `--` matches one: `cargo test` exits 0 when a filter matches
# nothing, so a renamed test would drop out of CI unseen.
#
#   .github/seeded-tests.sh -p oris-index persist
#   .github/seeded-tests.sh -p oris-core --lib -- step2::tests::a step2::tests::b
#   .github/seeded-tests.sh --once -p oris-core --lib -- step3::tests::a
set -euo pipefail
seeds=(1 2 3 4 5)
if [ "${1:-}" = --once ]; then
    seeds=(default)
    shift
fi
cargo_args=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
    cargo_args+=("$1")
    shift
done
[ "${1:-}" = -- ] && shift
filters=("$@")

# Tests the selection lists under the given filters.
listed() {
    cargo test --release -q "${cargo_args[@]}" -- "$@" --list | grep -c ': test$' || true
}
if [ "$(listed "${filters[@]}")" -eq 0 ]; then
    echo "seeded-tests: no test selected by: ${cargo_args[*]} -- ${filters[*]}" >&2
    exit 1
fi
for f in "${filters[@]}"; do
    if [ "$(listed "$f")" -eq 0 ]; then
        echo "seeded-tests: filter $f matches no test of: ${cargo_args[*]}" >&2
        exit 1
    fi
done
for s in "${seeds[@]}"; do
    if [ "$s" = default ]; then
        cargo test --release -q "${cargo_args[@]}" -- "${filters[@]}"
    else
        PROPTEST_SEED=$s cargo test --release -q "${cargo_args[@]}" -- "${filters[@]}"
    fi
done
