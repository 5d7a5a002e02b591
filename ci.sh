#!/usr/bin/env bash
# CI gate for the SCOPe workspace. Run from the repo root.
#
#   ./ci.sh          # fmt + build + test + clippy (the tier-1 verify plus lints)
#   ./ci.sh --quick  # skip the release build (debug test cycle only)
#
# Everything runs fully offline: the only non-std dependencies are the
# in-tree shims under shims/ (rand, proptest, criterion, serde, bytes).

set -euo pipefail
cd "$(dirname "$0")"

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
if [[ $quick -eq 0 ]]; then
    cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# Invariant lint: determinism (no hash-order iteration, no wall-clock or
# raw threads in logic), oracle discipline, panic-surface ratchet, shim
# surface, bench-artifact schema and the test-count floor below are all
# machine-checked by the in-tree analyzer. --deny fails on any unwaived
# finding; waivers are inline comments, counted and capped.
echo "==> scope-analyze --deny --json (workspace invariant lint)"
cargo run -q -p scope-analyze -- --deny --json

# Release-mode test pass: the optimizer DP oracles and proptests are an
# order of magnitude slower in debug, and release occasionally surfaces
# optimization-dependent float bugs debug hides. The floor must equal the
# static recount of #[test] cases (scope-analyze rule ci-floor-consistency
# keeps it honest) — if the suite ever shrinks below it, tests were lost,
# not just reorganised.
min_tests=630
if [[ $quick -eq 0 ]]; then
    echo "==> cargo test -q --release (count floor: $min_tests)"
    release_out=$(cargo test -q --release 2>&1) || {
        echo "$release_out"
        echo "FAIL: release test run failed"
        exit 1
    }
    total=$(echo "$release_out" | grep -E '^test result' \
        | grep -oE '[0-9]+ passed' | awk '{s += $1} END {print s + 0}')
    echo "    $total tests passed in release mode"
    if [[ "$total" -lt "$min_tests" ]]; then
        echo "FAIL: release test count $total dropped below the baseline $min_tests"
        exit 1
    fi

    # Smoke-run the PR-4 bench bin so BENCH_4.json generation can't rot:
    # quick instances, table-vs-reference equality asserted inside the bin,
    # JSON written out of tree (the committed BENCH_4.json is a full run).
    echo "==> solver_bench --json --quick (BENCH_4 smoke)"
    cargo run --release -q -p scope-bench --bin solver_bench -- \
        --json --quick --out target/BENCH_4.quick.json

    # Same for the PR-5 learning-pipeline bench: fast-vs-reference equality
    # (trees, forests, boosting, entropies, DP plans) asserted inside the
    # bin on quick instances.
    echo "==> train_bench --json --quick (BENCH_5 smoke)"
    cargo run --release -q -p scope-bench --bin train_bench -- \
        --json --quick --out target/BENCH_5.quick.json

    # PR-7 throughput suite: word-level codec kernels vs the byte-at-a-time
    # compress::reference pipelines (byte-identical streams asserted in the
    # bin) and the sharded column billing engine vs the sequential reference
    # (bit-identical reports for threads 1/2/7 asserted before timing).
    echo "==> throughput_bench --json --quick (BENCH_7 smoke)"
    cargo run --release -q -p scope-bench --bin throughput_bench -- \
        --json --quick --out target/BENCH_7.quick.json

    # PR-8 serving suite: the incremental serving engine vs the preserved
    # batch full-resolve (bit-identical choices/objectives asserted on every
    # epoch, plus thread-count independence, before any timing) and the
    # steady-state speedup floor asserted inside the bin.
    echo "==> serve_bench --json --quick (BENCH_8 smoke)"
    cargo run --release -q -p scope-bench --bin serve_bench -- \
        --json --quick --out target/BENCH_8.quick.json

    # PR-9 chaos suite: seeded fault injection against the serving loop.
    # The bin asserts, in-process before timing: heat bit-identical to a
    # fault-free twin, quarantine == the independent expected_intake
    # reference, healthy shards == full_resolve, and crash+restore ==
    # never-crashed (checkpoints compared as raw bytes).
    echo "==> chaos_bench --json --quick (BENCH_9 smoke)"
    cargo run --release -q -p scope-bench --bin chaos_bench -- \
        --json --quick --out target/BENCH_9.quick.json

    # PR-10 recovery suite: durable intake journal + end-to-end crash
    # recovery. The bin fuzzes crash points under none/light/heavy
    # storage-fault plans and asserts recovered state bit-identical to a
    # never-crashed twin (checkpoints as raw bytes, per epoch) before
    # timing journaling overhead; journal segments live in a throwaway
    # directory under target/.
    echo "==> recovery_bench --json --quick (BENCH_10 smoke)"
    cargo run --release -q -p scope-bench --bin recovery_bench -- \
        --json --quick --dir target/recovery_bench_ci --out target/BENCH_10.quick.json
fi

echo "==> cargo bench --no-run (criterion benches must compile)"
cargo bench --no-run

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
