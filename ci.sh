#!/usr/bin/env bash
# Tier-1 gate (the root workspace's default members are the facade plus
# every crate, so the plain build/test lines cover every crate suite at
# default proptest cases) plus the workspace lint wall,
# the pinned-case differential suites, and the smoke checks. The bench
# crate has no [[bench]] targets and one binary, run_all: every paper
# table, figure and gate is one of its steps (`--only <id>`), and each
# gated step runs below at its CI size (`--quick`) under `--check`.
# Wall-clock numbers of the system come from benchmark/ (last line).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Observability smoke: a small traced flow must yield parseable
# folded-stack (flamegraph) output — "scope;path <integer usecs>" lines.
folded="$(cargo run -q --release -p websift-bench --bin run_all -- --only profile --quick --folded)"
echo "$folded" | awk '
  NF != 2 { print "bad folded line: " $0; bad = 1 }
  $2 !~ /^[0-9]+$/ { print "non-integer count: " $0; bad = 1 }
  END {
    if (NR == 0) { print "folded-stack output is empty"; exit 1 }
    exit bad
  }'
echo "profile smoke: $(echo "$folded" | wc -l) folded stacks ok"

# Determinism lint wall: wall-clock reads, hash iteration feeding
# deterministic outputs, and unwrap() in untrusted-input parsers are all
# hard failures unless carrying a justified lint:allow.
cargo run -q --release -p websift-analyze --bin repo_lint

# Static-analyzer smoke: the known-bad plans must produce diagnostics,
# and the JSON report must be byte-identical across runs.
analyze="cargo run -q --release -p websift-bench --bin run_all -- --only analyze,explain --json"
analyze_a="$($analyze 2>/dev/null)"
analyze_b="$($analyze 2>/dev/null)"
if [ -z "$analyze_a" ]; then
  echo "run_all --only analyze,explain --json produced no output" >&2
  exit 1
fi
if [ "$analyze_a" != "$analyze_b" ]; then
  echo "run_all --only analyze,explain --json is not byte-stable across runs" >&2
  exit 1
fi
if ! echo "$analyze_a" | grep -q 'WS001'; then
  echo "run_all --only analyze,explain --json is missing expected diagnostics" >&2
  exit 1
fi
echo "analyze smoke: deterministic diagnostics ok"

# Field-flow explain differential: statically predicted fusion/combining
# stage decisions must equal the executor's actual decisions on random
# plans.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test explain
echo "explain differential: predicted stages == executed stages ok"

# Analyzer goldens: the committed diagnostics JSON byte for byte.
# WS002/WS007/WS008 are the scheduler's own admission violations
# (cluster::admission_violations), so this also pins the admission
# decision the analyzer shares with the scheduler.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test analyze
echo "analyze: goldens byte-equal ok"

# Explain artifact smoke: render the fusion/combining explain twice
# in-process and fail on byte drift or predicted-vs-executed mismatch.
cargo run -q --release -p websift-bench --bin run_all -- --only explain --check > /dev/null
echo "explain check: explain byte-stable and matches executor decisions ok"

# Partial-aggregation equivalence: the combining executor must be
# byte-identical to the uncombined one on every deterministic surface.
# Cases are pinned so CI explores the same search space every run.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test partial_agg
echo "partial_agg: combining equivalence holds ok"

# Fusion equivalence: a fused run must be byte-identical to an unfused
# one on every deterministic surface — random chains at unit and scaled
# simulated models, fan-out tee plans into plain and store sinks, and
# resumes (fused, unfused, uncombined) from the frame a kill at a random
# boundary leaves, inside fused stages too. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --test fusion
echo "fusion: fused == unfused equivalence holds ok"

# Text-kernel equivalence, each against the implementation it replaced
# (kept as a #[cfg(test)] reference): the packed n-gram kernel must rank
# the same grams, measure the same four distances and reach the same
# language verdict as the String-keyed one; the max-only Viterbi kernel
# must return the same tags, errors and path-score bits as the
# back-pointer one on every decoding path this CPU runs (scalar, avx2,
# avx512f; a path the CPU lacks is skipped and named), alone and inside
# the Fig. 2 flow. Hostile and random inputs; cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-text --lib differential
echo "langid + pos kernels (every path this CPU runs) == references holds ok"

# NER kernels: the flat-table Aho-Corasick automaton must report,
# element for element, what a brute-force search reports — every folded
# pattern compared at every char boundary, both case modes, NUL/DEL,
# non-ASCII patterns and chars that fold to ASCII — and DictionaryTagger
# over the generated lexicon and corpora must tag what the same rules
# keep of the brute-force matches. The CRF, which hashes each sentence's
# tokens once, must decode the same labels and unary-score bits as the
# decoder on the format!-built feature extractor, and train bit-equal
# weights — ASCII, non-ASCII (İ, ß, the Kelvin sign) and one-token
# sentences, context features on and off. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-ner --lib differential
echo "dictionary automaton == brute-force search, CRF == reference decoder and trainer holds ok"

# Crawl loop: a pool of 2, 3 or 8 fetch-and-analyse workers must crawl exactly as one does.
# The same filter runs the classifier's: `predict`, which lower-cases each
# word into one reused buffer, must return the log-odds bits of the
# `#[cfg(test)]` reference that allocates a String per word — every page
# of a generated web, markup and net text, and non-ASCII words (final
# sigma, İ, the Kelvin sign, ß), before and after self-training updates.
# And the page parse: the borrowed token stream, the repaired stream or
# its `Untranscodable` reason, the blocks, the links and the net text must
# equal the `#[cfg(test)]` owned tokenizer's on every page of two generated
# webs, at default defect rates and re-wrapped with every page severely
# broken, and the crawler's one-pass parse must equal `extract_links` plus
# `BoilerplateDetector::extract` called apart.
PROPTEST_CASES=64 cargo test -q -p websift-crawler --lib differential
echo "crawl: any worker pool == one worker, predict == reference predict holds ok"

# Sealed frames in one pass: `codec::hash_chains`, which advances up to
# five FNV-1a chains together over one buffer and writes each result
# into its slot before a later chain reads it, must return and write what
# separate FNV-1a calls patched in turn do — random buffers and range
# sets (empty, adjacent, nested across chains, whole-buffer), slots
# wherever the layout rules allow — and a frame written in place inside
# another must equal sealing twice. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-resilience --lib differential
echo "codec: lockstep FNV-1a chains == separate fnv1a calls holds ok"

# Live watermarks: every round's WSWM v3 frame — round 1's whole, every
# later one its round's changes and the previous frame's checksum — written
# as one buffer with the crawl frame (changes since the previous cursor,
# page bodies from the drain cursor on) and the round's store snapshot in
# place and hashed in one pass, must be byte-equal to the reference seal
# built from separately encoded v3 parts (the crawl frame and the store
# frame each sealed on their own, the crawler's digest of its segments,
# the store's content digest, the retained keys whose state changed) — at
# DoP 1 and 2, under injected crawl faults, and after a resume from a
# chain prefix in mid-crawl.
cargo test -q -p websift-live --lib differential
echo "live: one-pass watermark seal == separately encoded reference seal holds ok"

# Packed span arrays: `Value::Spans` must be indistinguishable from the
# plain array of `{end, start}` objects it spells — codec bytes, size
# model, `==`, `value_cmp` — and the paper's flows must produce the same
# sinks, metrics, checkpoint frames and digests as with `#[cfg(test)]`
# annotators writing plain arrays: fused or not, and resumed from a
# frame. The same run holds the linguistic
# annotators' word-list and parenthesis scanners to a brute-force search
# by the definition of their patterns, hostile sentence spans included.
# Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --lib differential
echo "packed spans == plain arrays, scanners == their patterns holds ok"

# count_by's key writer: the bytes `format!("{v:?}")` wrote, for every
# `Value` variant, a missing field, and the strings its unescaped fast
# path must refuse — quotes, backslashes, control chars, DEL, non-ASCII,
# combining marks — alone, between letters and in random concatenations.
# Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-flow --lib differential_count_by_key
echo "count_by key writer == Debug format holds ok"

# Serving read path: the query engine (one shard range per entity, rows
# from shared per-key values, registry handles once per query kind) must
# answer as the `#[cfg(test)]` reference engine it replaced — rows,
# response bytes, scanned postings, cost bits, and after the stream the
# registry snapshot and the trace JSONL — over random stores (empty,
# non-ASCII and shared-first-byte entities, every method, rounds 0-4, two
# corpora) at 1, 4, 16 and 256 shards. Cases pinned as above.
PROPTEST_CASES=64 cargo test -q -p websift-serve --lib differential
echo "serve engine == reference engine holds ok"

# Fusion + combining throughput smoke: the fused executor must not
# regress wall-clock records/sec against its own unfused mode, and
# combining must never lose to uncombined — including at DoP 1, where no
# parallelism hides the fold (--check exits non-zero below a 0.95x ratio
# on either gate).
cargo run -q --release -p websift-bench --bin run_all -- --only throughput --quick --check
echo "throughput smoke: fused and combined throughput hold up ok"

# Design-ablation smoke: each ablation's arms must compute the same thing
# where they are meant to be equivalent — Aho-Corasick == naive scan,
# filter-first == annotate-first sink (the step panics on
# disagreement).
cargo run -q --release -p websift-bench --bin run_all -- --only ablations --quick > /dev/null
echo "ablations smoke: ablation arms agree where they must ok"

# Serving-layer smoke: query responses must be byte-identical across
# shard counts and across snapshot/resume (--check exits non-zero on any
# digest mismatch), with admission-controlled concurrent clients.
cargo run -q --release -p websift-bench --bin run_all -- --only serve --quick --check > /dev/null
echo "serve smoke: serving digests identical across shards and snapshot/resume ok"

# Live incremental-execution smoke: the incremental session, a batch full
# recompute, and sessions killed after every round and resumed from the
# chain of watermarks up to it (DoP 1, 2 and 4, with and without injected
# crawl faults) must agree on every store digest and later watermark, the
# delta pass must beat the recompute per new document from round 2 on, no
# watermark's crawl frame may carry a page body, and the bytes sealed after
# the first watermark must grow linearly in pages (--check exits non-zero
# otherwise; its stderr line prints the sizes).
cargo run -q --release -p websift-bench --bin run_all -- --only live --quick --check > /dev/null
echo "live smoke: incremental == recompute == resumed from every chain prefix, delta pass wins, watermarks carry no page body, sealed bytes linear in pages ok"

# The workspace has no serialization library: JSON goes through
# websift-observe's writer and every frame through the resilience codec.
# (benchmark/ is its own workspace and is left as it is.)
if grep -rn serde --include='*.rs' --include=Cargo.toml --include=Cargo.lock \
    --exclude-dir=benchmark --exclude-dir=target --exclude-dir=.git .; then
  echo "serde must not reappear outside benchmark/" >&2
  exit 1
fi
echo "no serde ok"

# The paper's tables come from run_all; --only runs one step of it and
# must print the same bytes twice, and an unknown step id is an error.
warstory_a="$(cargo run -q --release -p websift-bench --bin run_all -- --only warstory 2>/dev/null)"
warstory_b="$(cargo run -q --release -p websift-bench --bin run_all -- --only warstory 2>/dev/null)"
if [ -z "$warstory_a" ] || [ "$warstory_a" != "$warstory_b" ]; then
  echo "run_all --only warstory is empty or not byte-stable across runs" >&2
  exit 1
fi
if cargo run -q --release -p websift-bench --bin run_all -- --only nosuch 2>/dev/null; then
  echo "run_all --only nosuch must exit non-zero" >&2
  exit 1
fi
echo "run_all --only: byte-stable, unknown ids rejected ok"

# One experiment binary: a paper table, figure or gate is a run_all step
# (`--only <id>`, sized by `--quick`, gated by `--check`), not a bin of
# its own with its own flags. ls on a missing directory would leave the
# pipeline below clean, so run_all.rs's presence is checked first.
test -f crates/bench/src/bin/run_all.rs
if ls crates/bench/src/bin | grep -vxF run_all.rs; then
  echo "crates/bench/src/bin must hold only run_all.rs: make it a run_all step" >&2
  exit 1
fi
echo "one experiment binary ok"

# The flow runtime keeps everything in memory or on a channel: it writes
# no file, so it has no temp-dir, full-disk or left-over-file failures.
if grep -rnE 'temp_dir|File::create|File::open' crates/flow/src; then
  echo "crates/flow/src must not touch the filesystem" >&2
  exit 1
fi
echo "flow writes no file ok"

# The simulated cluster model stays in the executor: the stage kernel, its
# fold and the thread loop that runs them see raw per-record costs, never
# a knob of the paper-scale model. grep on a missing file exits 2, which
# the `if` would read as clean, so the file's presence is checked first.
physical=crates/flow/src/shuffle.rs
test -f "$physical"
if grep -nE 'work_scale|byte_scale|chunk_rounds|ClusterSpec' "$physical"; then
  echo "the simulated model must not reach the physical layer" >&2
  exit 1
fi
echo "physical layer sees no simulated-model knob ok"

# Flow metrics live in one place: the observer's registry is the only
# mutable copy of every flow total and per-operator row, FlowMetrics is a
# view built when a run ends, and node losses are one executor list — no
# metric codec, no gauge mirror, no second liveness vector.
if grep -nE 'impl Snapshot for (FlowMetrics|OpMetrics)|fn mirror_flow_gauges|node_alive' \
  crates/flow/src/executor.rs; then
  echo "flow metrics must live in one place" >&2
  exit 1
fi
echo "flow metrics live in one place ok"

# The registry is the only cost store: start-up, work and sink charges
# are registry series that every checkpoint frame carries, so no scope
# tree outside a frame may come back.
if grep -rnE 'Profiler|ScopeStat|profiler\(\)' crates src tests examples; then
  echo "cost attribution must live in the registry" >&2
  exit 1
fi
echo "no profiler ok"

# The stage planner (crates/flow/src/stages.rs) is the flow's only
# planner: no logical rewriter, whose rules no paper flow ever fired.
if grep -rnE 'fn optimize|enum Rewrite|pull_filters_forward|reorder_adjacent_filters|mod optimizer' crates src tests examples; then
  echo "the logical optimizer was deleted; plans run as built" >&2
  exit 1
fi
echo "no logical optimizer ok"

# Every Reduce is typed: `Operator::reduce_agg` with one of the six
# mergeable `Aggregate`s is the only way to build one, so no opaque
# closure reduce, opt-in merge contract or "is it combinable?" question
# may come back.
if grep -rnE 'Aggregate::Custom|CustomCombin|reduce_custom_combinable|Operator::reduce\(|NonCombinableReduce|combinable_reduce' \
  crates/*/src crates/*/tests tests; then
  echo "every Reduce must be a typed Aggregate" >&2
  exit 1
fi
echo "every Reduce is typed ok"

# The wall-clock benchmark's own gate: offline build, clippy, unit tests,
# and a 1/20-size smoke run of every workload with its oracles.
benchmark/check.sh
