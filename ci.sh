#!/usr/bin/env sh
# Workspace CI gate: formatting, clippy, the lint harness, and tier-1
# (build + tests). Run from the repo root; stops at the first failure.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

# Generic code rules are rustc/clippy lints: the [workspace.lints] table
# in Cargo.toml plus disallowed-methods in clippy.toml, over every target
# (tests, examples and benches included).
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Those lints must still bite. The fixture seeds one violation per lint;
# compiled alone from the repo root (so clippy.toml applies) with every
# lint at deny it must fail, and the JSON diagnostics must name each lint
# on its own, so one lint that fires cannot hide another that went silent.
echo "==> built-in lint fixture must fail, naming every lint"
lints="unsafe_code missing_docs clippy::unwrap_used clippy::expect_used
    clippy::undocumented_unsafe_blocks clippy::disallowed_methods
    clippy::panic clippy::todo clippy::unimplemented"
out_dir=$(mktemp -d)
# shellcheck disable=SC2046,SC2086 # one `-D <lint>` pair per lint
if builtins_json=$(clippy-driver --edition 2021 --crate-type lib --emit=metadata \
    --out-dir "$out_dir" --error-format=json $(printf ' -D %s' $lints) \
    crates/lint/fixtures/builtins.rs 2>&1); then
    echo "error: crates/lint/fixtures/builtins.rs compiled clean" >&2
    exit 1
fi
rm -rf "$out_dir"
require() {
    printf '%s\n' "$builtins_json" | grep -qF "$1" ||
        { echo "error: builtins.rs diagnostics lack $1" >&2; exit 1; }
}
for lint in $lints; do
    require "\"code\":{\"code\":\"$lint\""
done
require 'disallowed method `std::thread::spawn`'
require 'disallowed method `std::sync::atomic::AtomicU64::new`'

# The analysis engine's own unit, golden-snapshot, and exit-code tests
# run before the engine is trusted to gate anything else.
echo "==> cargo test -p amud-lint"
cargo test -q -p amud-lint

# Full workspace analysis: the four domain passes no built-in lint
# provides. Exit 1 = violation; it stops CI here.
echo "==> amud-analyze (cargo run -p amud-lint)"
cargo run --release -q -p amud-lint -- --report analyze-report.json

echo "==> analyze-report.json summary"
grep -A5 '"summary"' analyze-report.json || true

# The report is a deterministic artifact: no timestamps, sorted findings,
# every rule listed (zero rows included). Two back-to-back runs over the
# same tree must produce byte-identical JSON, or downstream report diffing
# is meaningless.
# The second run adds --timings: wall-time lines go to stdout only, so
# the JSON must still be byte-identical — and the total analysis time
# must stay inside the CI runtime budget.
echo "==> analyze-report.json is deterministic (--timings stays out of the JSON)"
timings_out=$(cargo run --release -q -p amud-lint -- --timings --report analyze-report.second.json)
cmp analyze-report.json analyze-report.second.json
rm -f analyze-report.second.json

wall_ms=$(printf '%s\n' "$timings_out" | sed -n 's/^amud-analyze: analysis wall time \([0-9][0-9]*\) ms$/\1/p')
if [ -z "$wall_ms" ] || [ "$wall_ms" -gt 10000 ]; then
    echo "error: analysis wall time '${wall_ms:-unparsed}' ms blew the 10000 ms budget" >&2
    exit 1
fi
echo "    analysis wall time ${wall_ms} ms (budget 10000 ms)"

# The engine must still bite: the float-determinism fixture has
# violations, and "violation" must be exit code 1 exactly (2/4 mean the
# harness itself broke — see crates/lint/tests/cli.rs).
echo "==> amud-analyze fixture must fail with exit 1"
set +e
cargo run --release -q -p amud-lint -- crates/lint/fixtures/float_determinism.rs >/dev/null 2>&1
fixture_status=$?
set -e
if [ "$fixture_status" -ne 1 ]; then
    echo "error: lint fixture exited $fixture_status (want 1) — the harness has gone soft" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# Tier-1 tests run under two thread budgets: the exact serial fallback
# and a 4-way pool. The amud-par determinism contract says both must see
# bit-identical numerics, so any seed-pinned assertion that passes at one
# budget and fails at the other is a runtime bug, not flake. The 4-way leg
# also runs every workspace member's own tests (amud_pin, the engine pins,
# the nn/par proptests, par_row_blocks_mut's rejected-range table).
echo "==> AMUD_THREADS=1 cargo test -q"
AMUD_THREADS=1 cargo test -q

echo "==> AMUD_THREADS=4 cargo test -q --workspace"
AMUD_THREADS=4 cargo test -q --workspace

# Row-local training must stay the full-graph loop bit for bit. perfbench's
# traced run trains through its own copy of the full-graph loop, checks the
# test accuracies against its untraced `train()` runs, and exits non-zero
# on any mismatch.
echo "==> perfbench train-chameleon-k5 --trace 1 (row-local == full-graph)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload train-chameleon-k5 --seed 1 --seconds 5 --trace 1

# Graph preprocessing is shared: AMUD's 2-hop family feeds ADPA's operator
# build. On paper-scale squirrel perfbench checks that AMUD still says
# Directed, that `Adpa::new` after the traced precompute split is all cache
# hits, and that test accuracies are equal bit for bit between runs; it
# exits non-zero on any mismatch.
echo "==> perfbench sweep-squirrel --trace 1 (AMUD decision, cache hits, accuracies)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload sweep-squirrel --seed 1 --seconds 5 --trace 1

# The serving path end to end: an int8 snapshot served under open-loop
# load with a hot swap every 500 ms. perfbench checks every wire reply
# against an in-process `Engine::predict`, that no answer depends on the
# batch it was merged into, and that STATS `swaps` equals the number of
# snapshot versions written; it exits non-zero on any mismatch.
echo "==> perfbench serve-int8-swap (engine replies and hot swaps)"
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload serve-int8-swap --seed 1 --seconds 5

# The fault-injection suite proves every injected failure is recovered or
# surfaces as a typed error (and pins the CLI exit-code table).
echo "==> cargo test -q --test fault_injection"
cargo test -q --test fault_injection

# Precompute-cache equivalence suite runs under both process-wide cache
# defaults: the properties flip the cache per-closure via with_cache, but
# the env default governs every path the suite does not pin explicitly.
echo "==> precompute equivalence (AMUD_CACHE default)"
cargo test -q -p amud-core --test precompute_equivalence

echo "==> precompute equivalence (AMUD_CACHE=off)"
AMUD_CACHE=off cargo test -q -p amud-core --test precompute_equivalence

# Serving smoke: spawn a real `amud serve` subprocess and drive it through
# normal requests, a past-deadline request, and a corrupt-then-valid hot
# swap, asserting every stats counter moved (tests/serve_e2e.rs::ci_smoke).
# The `ci_smoke` filter also matches ci_smoke_quantized_snapshot_serves,
# which serves an int8/f32 artifact and pins wire replies to the
# in-process engine on the same bytes.
echo "==> serve smoke (cargo test --test serve_e2e ci_smoke)"
cargo test -q --release --test serve_e2e -- ci_smoke

# Serving latency harness: Zipf-skewed steady load on one server — emits
# p50/p99/QPS and fails unless the server counted every request served.
# The fault paths are pinned by the amud-serve unit tests and serve_e2e.
echo "==> bench-serve --smoke"
cargo run --release -q -p amud-bench --bin bench-serve -- --smoke --out /tmp/BENCH_serve_smoke.json

# Kernel benchmark smoke run: times serial vs parallel on CI-sized shapes,
# fails if any kernel's outputs diverge bitwise between the budgets, and
# gates serial timings against the committed baseline (>10% + 0.25 ms per
# kernel/shape is a regression).
echo "==> bench-kernels --smoke --check"
cargo run --release -q -p amud-bench --bin bench-kernels -- --smoke --out /tmp/BENCH_kernels_smoke.json --check BENCH_kernels.json

# Precompute-cache smoke run: cold vs warm sweeps must produce bit-identical
# tables and the warm pass must clear the 5x spmm-reduction gate.
echo "==> bench-precompute --smoke"
cargo run --release -q -p amud-bench --bin bench-precompute -- --smoke --out /tmp/BENCH_precompute_smoke.json

# Quantization smoke run: matmul_deq must match decode-then-matmul
# bitwise, int8 artifacts must clear the 3.0x byte-reduction gate on
# disk AND resident, engine logits must be identical across
# thread budgets, the registry accuracy drop stays <= 0.5 pt, and serial
# matmul timings are gated against the committed baseline (>10% + 0.25 ms
# per kernel/shape is a regression).
echo "==> bench-quant --smoke --check"
cargo run --release -q -p amud-bench --bin bench-quant -- --smoke --out /tmp/BENCH_quant_smoke.json --check BENCH_quant.json

echo "ci: all green"
