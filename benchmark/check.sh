#!/usr/bin/env bash
# Gate for the benchmark workspace: offline build, clippy wall, unit tests,
# the repository's determinism lint (which walks benchmark/ too), and a
# smoke run of every workload, traced and not, at 1/20 size. The smoke run
# asserts that BENCHMARK.json is what `-- manifest` generates, that every
# declared metric is emitted exactly once per run with its unit and a
# finite value, that nothing failed and that every oracle passes.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$manifest"
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet -p websift-analyze --bin repo_lint
cargo run --release --offline --quiet --manifest-path "$manifest" -- check --smoke
echo "benchmark check: ok"
