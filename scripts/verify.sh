#!/usr/bin/env sh
# Full verification gate. Run from anywhere: ./scripts/verify.sh
#
# Stage 2 is tier-1 and already covers the chaos matrix
# (CHAOS_SCHEDULES defaults to 8), checkpoint cadence, the 64/128-node
# scale tests, the smoke golden and the shape of both committed goldens.
# Determinism is proven there: tests/determinism.rs reruns the smoke
# matrix -- its 42 chaos, two-crash and torn/rotted-log cells included --
# against crates/obsv/smoke_baseline.json and runs one cell of each kind
# twice. The later stages add what only release binaries can do in
# reasonable time. The tier-1 stage prints one line with its passed and
# failed test counts (summed over every "test result:" line); the
# tier-1, report and benchmark-smoke stages print their wall time
# (whole seconds), so a host-time change shows on every run; the benchmark-smoke stage also prints each workload's peak_rss_mb,
# so a memory regression does too; a traced scale-128 round then prints
# obsv.traced_peak_rss_mb and simnet.trace_events, so the traced path's
# memory shows as well. The first line counts the non-test
# source of crates/*/src (each file up to its first #[cfg(test)]) and
# prints hlrc's MSG_KINDS, so a subtraction -- a deleted message kind
# included -- shows on every run too.
set -eu

cd "$(dirname "$0")/.."

msg_kinds=$(sed -n 's/^pub const MSG_KINDS: usize = \([0-9]*\);$/\1/p' crates/hlrc/src/msg.rs)
find crates/*/src -name '*.rs' | sort | xargs awk -v kinds="$msg_kinds" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print "verify: crates/*/src holds " n " non-test lines (each file up to its first #[cfg(test)]); MSG_KINDS = " kinds }'

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (every test binary runs; a failure still fails the stage)"
t0=$(date +%s)
test_status=0
test_out=$(cargo test -q --workspace --no-fail-fast 2>&1) || test_status=$?
printf '%s\n' "$test_out"
printf '%s\n' "$test_out" | awk '/^test result:/ { passed += $4; failed += $6 }
    END { print "verify: tier-1 tests: " passed + 0 " passed, " failed + 0 " failed" }'
echo "verify: tier-1 tests took $(($(date +%s) - t0)) s wall"
if [ "$test_status" -ne 0 ]; then
    echo "verify: tier-1 tests failed (exit $test_status)" >&2
    exit "$test_status"
fi

echo "==> shipped examples in release (each asserts its digests; crash_and_recover that ML and CCL recovery reproduce the failure-free one)"
for example in quickstart weather_shallow molecular_water crash_and_recover log_anatomy; do
    cargo run -q --release --example "$example" >/dev/null
done

echo "==> report (smoke + paper matrices, smoke chaos cells included, vs their goldens, EXPERIMENTS.md tables; writes nothing)"
t0=$(date +%s)
./target/release/report
echo "verify: report took $(($(date +%s) - t0)) s wall"

echo "==> benchmark smoke (five workloads x five cells, one round, every output checked; a paper workload that disagrees with REPORT_paper.json fails it)"
t0=$(date +%s)
bench_out=$(benchmark/run.sh --rounds 1 --trace 0)
printf '%s\n' "$bench_out"
echo "verify: benchmark smoke took $(($(date +%s) - t0)) s wall"
printf '%s\n' "$bench_out" | awk '$2 == "peak_rss_mb" { line = line " " $1 "=" $3 }
    END { print "verify: benchmark smoke peak_rss_mb (MB):" line }'
if printf '%s\n' "$bench_out" | grep -q '^# WARNING consistency:'; then
    echo "verify: the benchmark disagrees with REPORT_paper.json (the WARNING lines above)" >&2
    exit 1
fi

echo "==> benchmark traced round on scale-128 (blame, Chrome export and fingerprint over 128 packed traces)"
traced_out=$(benchmark/run.sh --workload scale-128 --rounds 1 --trace 1)
printf '%s\n' "$traced_out"
printf '%s\n' "$traced_out" | awk '$2 == "obsv.traced_peak_rss_mb" || $2 == "simnet.trace_events" { line = line " " $2 "=" $3 }
    END { print "verify: scale-128 traced round:" line }'

echo "==> benchmark crate's own tests (it compiles against the workspace's traits and messages)"
CARGO_TARGET_DIR=benchmark/target cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark/Cargo.lock unchanged (the crate graph it records is frozen; --locked misses a pruned edge)"
git diff --exit-code -- benchmark/Cargo.lock

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc (a dangling intra-doc link is invisible to build, test and clippy)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "verify: OK"
