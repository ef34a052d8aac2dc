#!/usr/bin/env bash
# Tier-1 gate (the root workspace's default members are the facade plus
# every crate, so the plain build/test lines cover shard_worker and every
# crate suite at default proptest cases) plus the workspace lint wall,
# the pinned-case differential suites, and the smoke checks. The bench
# crate has no [[bench]] targets: everything in it is an experiment
# binary, and the ones with a gate are run below. Wall-clock numbers of
# the system come from benchmark/ (last line).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Observability smoke: a small traced flow must yield parseable
# folded-stack (flamegraph) output — "scope;path <integer usecs>" lines.
folded="$(cargo run -q --release -p websift-bench --bin exp_profile -- --folded)"
echo "$folded" | awk '
  NF != 2 { print "bad folded line: " $0; bad = 1 }
  $2 !~ /^[0-9]+$/ { print "non-integer count: " $0; bad = 1 }
  END {
    if (NR == 0) { print "folded-stack output is empty"; exit 1 }
    exit bad
  }'
echo "exp_profile smoke: $(echo "$folded" | wc -l) folded stacks ok"

# Determinism lint wall: wall-clock reads, hash iteration feeding
# deterministic outputs, and unwrap() in untrusted-input parsers are all
# hard failures unless carrying a justified lint:allow.
cargo run -q --release -p websift-analyze --bin repo_lint

# Static-analyzer smoke: the known-bad plans must produce diagnostics,
# and the JSON report must be byte-identical across runs.
analyze_a="$(cargo run -q --release -p websift-bench --bin exp_analyze -- --json)"
analyze_b="$(cargo run -q --release -p websift-bench --bin exp_analyze -- --json)"
if [ -z "$analyze_a" ]; then
  echo "exp_analyze --json produced no output" >&2
  exit 1
fi
if [ "$analyze_a" != "$analyze_b" ]; then
  echo "exp_analyze --json is not byte-stable across runs" >&2
  exit 1
fi
if ! echo "$analyze_a" | grep -q 'WS001'; then
  echo "exp_analyze --json is missing expected diagnostics" >&2
  exit 1
fi
echo "exp_analyze smoke: deterministic diagnostics ok"

# Field-flow explain differential: statically predicted fusion/combining
# stage decisions must equal the executor's actual decisions on random
# plans, and WS013–WS015 verdicts must survive optimizer rewrites.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test explain
echo "explain differential: predicted stages == executed stages ok"

# Explain artifact smoke: render the fusion/combining explain twice
# in-process and fail on byte drift or predicted-vs-executed mismatch.
cargo run -q --release -p websift-bench --bin exp_analyze -- --quick --check > /dev/null
echo "exp_analyze check: explain byte-stable and matches executor decisions ok"

# Partial-aggregation equivalence: the combining executor must be
# byte-identical to the uncombined one on every deterministic surface.
# Cases are pinned so CI explores the same search space every run.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test partial_agg
echo "partial_agg: combining equivalence holds ok"

# Fusion equivalence: a fused run must be byte-identical to an unfused
# one on every deterministic surface — random chains, fan-out tee plans,
# and kill/resume across fused stages. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test fusion
echo "fusion: fused == unfused equivalence holds ok"

# Text-kernel equivalence, each against the implementation it replaced
# (kept as a #[cfg(test)] reference): the packed n-gram kernel must rank
# the same grams, measure the same four distances and reach the same
# language verdict as the String-keyed one; the max-only Viterbi kernel
# must return the same tags, errors and path-score bits as the
# back-pointer one, alone and inside the Fig. 2 flow. Hostile and random
# inputs; cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-text --lib differential
echo "langid + pos kernels == references holds ok"

# Packed span arrays: `Value::Spans` must be indistinguishable from the
# plain array of `{end, start}` objects it spells — codec bytes, size
# model, `==`, `value_cmp` — and the paper's flows must produce the same
# sinks, metrics, checkpoint frames and digests as with `#[cfg(test)]`
# annotators writing plain arrays: fused or not, resumed from a frame,
# and across worker shards. The same run holds the linguistic
# annotators' word-list and parenthesis scanners to a brute-force search
# by the definition of their patterns, hostile sentence spans included.
# Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --lib differential
echo "packed spans == plain arrays, scanners == their patterns holds ok"

# Fusion + combining throughput smoke: the fused executor must not
# regress wall-clock records/sec against its own unfused mode, and
# combining must never lose to uncombined — including at DoP 1, where no
# parallelism hides the fold (--check exits non-zero below a 0.95x ratio
# on either gate).
cargo run -q --release -p websift-bench --bin exp_throughput -- --quick --check
echo "exp_throughput smoke: fused and combined throughput hold up ok"

# Design-ablation smoke: each ablation's arms must compute the same thing
# where they are meant to be equivalent — Aho-Corasick == naive scan,
# filter-first == annotate-first == optimizer-rewritten sink (the binary
# panics on disagreement).
cargo run -q --release -p websift-bench --bin exp_ablations -- --quick > /dev/null
echo "exp_ablations smoke: ablation arms agree where they must ok"

# Serving-layer smoke: query responses must be byte-identical across
# shard counts and across snapshot/resume (--check exits non-zero on any
# digest mismatch), with admission-controlled concurrent clients.
cargo run -q --release -p websift-bench --bin exp_serve -- --quick --check > /dev/null
echo "exp_serve smoke: serving digests identical across shards and snapshot/resume ok"

# Live incremental-execution smoke: the incremental session, a batch
# full recompute, and a killed-and-resumed session must agree on every
# store digest, and the delta pass must beat the recompute per new
# document from round 2 on (--check exits non-zero otherwise).
cargo run -q --release -p websift-bench --bin exp_live -- --quick --check > /dev/null
echo "exp_live smoke: incremental == recompute == resumed digests, delta pass wins ok"

# Sharded-execution equivalence: N worker shards (threads or real OS
# processes exchanging length-prefixed frames) must be byte-identical to
# the in-process engine on every deterministic surface, including
# kill-and-resume at mismatched shard counts. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test shuffle
echo "shuffle: sharded == in-process equivalence holds ok"

# The flow runtime keeps everything in memory or on a channel: it writes
# no file, so it has no temp-dir, full-disk or left-over-file failures.
if grep -rnE 'temp_dir|File::create|File::open' crates/flow/src; then
  echo "crates/flow/src must not touch the filesystem" >&2
  exit 1
fi
echo "flow writes no file ok"

# Sharded scale-out smoke on the real flows: every shard count (worker
# threads and real worker processes) must reproduce the unsharded run's
# deterministic digest with no stage left on the local runner (--check
# exits non-zero on any divergence or pinned stage).
cargo run -q --release -p websift-bench --bin exp_shuffle -- --quick --check > /dev/null
echo "exp_shuffle smoke: digests identical across shard counts, every stage shipped ok"

# The wall-clock benchmark's own gate: offline build, clippy, unit tests,
# and a 1/20-size smoke run of every workload with its oracles.
benchmark/check.sh
