#!/usr/bin/env bash
# The one command of the repo benchmark; see README.md beside it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--traced | --trace 0|1]
#   benchmark/run.sh --check-repeat [--seed N] [--seconds S]
#
# Builds release (this package, and `lc` from the root workspace for the
# CLI layer) and hands its arguments to the harness. With --workload the
# last line of standard output is the run's result object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac

# Build output goes to stderr: standard output belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p lc-cli --bin lc >&2

export LC_BENCH_RUSTC="$(rustc --version)"
export LC_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/lc-benchmark" "$@"
