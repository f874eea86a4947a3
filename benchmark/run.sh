#!/usr/bin/env bash
# The one command of the repository benchmark (named in BENCHMARK.json).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--traced] [--smoke]
#       every workload, each in its own process; writes benchmark/out/result.json
#   benchmark/run.sh --compare OLD.json NEW.json
#       applies the bounds declared in BENCHMARK.json
#
# Builds the `tmc` binary in the root workspace and the benchmark crate,
# both --release --offline, then hands every argument to the benchmark.
# Build output goes to stderr so stdout stays the benchmark's own.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One absolute target directory for both builds: the caller's
# CARGO_TARGET_DIR if set (relative to where it was set: the caller's
# working directory), else each workspace's own target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    mkdir -p "$CARGO_TARGET_DIR"
    CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
    export CARGO_TARGET_DIR
    root_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    root_target="$root/target"
    bench_target="$here/target"
fi

cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p tmc-scenario --bin tmc >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$bench_target/release/repo-benchmark" --tmc-bin "$root_target/release/tmc" "$@"
