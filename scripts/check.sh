#!/usr/bin/env bash
# Full local gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline against the vendored shims — no network needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs cite only files that exist =="
# `tests/x.rs`, `crates/c/tests/x.rs` and `examples/x.rs` are paths from
# the repo root; `benches/x.rs` and `bench x` name a dri-bench target.
docs=(README.md DESIGN.md EXPERIMENTS.md)
cited=$(
    {
        grep -ohE '(crates/[a-z_]+/)?(tests|examples)/[a-z0-9_]+\.rs' "${docs[@]}" || true
        { grep -ohE 'benches/[a-z0-9_]+\.rs|bench [a-z0-9_]+`' "${docs[@]}" || true; } |
            sed -E 's/^bench ([a-z0-9_]+)`$/benches\/\1.rs/; s/^/crates\/bench\//'
    } | sort -u
)
missing=0
for path in $cited; do
    [ -f "$path" ] || { echo "cited but missing: $path"; missing=1; }
done
[ "$missing" = 0 ]

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (workspace, deny warnings: no dangling doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== examples build =="
cargo build --release --offline --examples

echo "== quickstart: all six user stories end to end =="
cargo run --release --offline --example quickstart

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== trace subsystem tests =="
cargo test -q --offline -p dri-trace
cargo test -q --offline -p isambard-dri --test trace_provenance
cargo test -q --offline -p isambard-dri --test trace_golden
# Serial vs 8 workers: equal metrics, stage summaries read from the log included.
cargo test -q --offline -p isambard-dri --test storm_shard_stress
# The one example that prints the stage summaries.
cargo run --release --offline --example day_in_the_life

echo "== compliance: the tenet, CIS and CAF rule tables over one live evidence record =="
# The three tables and their unit tests live in dri-policy; e15 and e16
# assess the live evidence of exercised deployments.
cargo test -q --offline -p dri-policy
cargo test -q --offline -p isambard-dri --test e15_tenets --test e16_caf_baseline
cargo run --release --offline --example compliance_audit

echo "== SIEM ingest: read-your-writes, backpressure, timeline order =="
cargo test -q --offline -p dri-siem
cargo test -q --offline -p isambard-dri --test telemetry_anomaly

echo "== resilience: fault plane + breaker/budget determinism =="
cargo test -q --offline -p dri-fault
cargo test -q --offline -p isambard-dri --test failure_injection
cargo test -q --offline -p isambard-dri --test failure_injection six_chaos_drills_keep_their_exact_records -- --exact
cargo test -q --offline -p isambard-dri --test chaos_determinism

echo "== degraded modes: no dropped sessions, no stale allows =="
cargo test -q --offline -p isambard-dri --test degraded_modes --test e11_killswitch

echo "== chaos day (drills incl. data plane, budget ledger, siem feedback, trace shape, overhead guard) =="
cargo run --release --offline --example chaos_day

echo "== verification cache: stale-allow regressions + cached/uncached equivalence =="
cargo test -q --offline -p dri-broker token_cache
cargo test -q --offline -p dri-policy trust
cargo test -q --offline -p isambard-dri --test token_cache

echo "== bounded state: capped token cache, live-only job table, soak over simulated days =="
cargo test -q --offline -p isambard-dri --test bounded_state
cargo test -q --offline -p dri-cluster slurm
cargo test -q --offline -p dri-broker token_cache

echo "== one token gate: no relying service validates tokens itself =="
cargo test -q --offline -p dri-broker gate
if grep -rnE 'validate_shared|has_role\(' crates/{cluster,sshca,netsim,core,portal}/src; then
    echo "token checks outside dri_broker::TokenGate (listed above)"
    exit 1
fi

echo "== crypto differential: every fast path against its slow reference, RFC 8032/7748 vectors =="
cargo test -q --offline -p dri-crypto
# In release, with the ignored long-chain field differential included.
cargo test --release -q --offline -p dri-crypto -- --include-ignored

echo "== crypto op-count gate: Ed25519 signs/verifies per flow pinned exactly =="
cargo test -q --offline -p isambard-dri --test crypto_op_counts

echo "== allocation budget: per-flow allocations pinned exactly =="
cargo test -q --offline -p isambard-dri --test alloc_counts

echo "== perfbench: the benchmark workspace builds against these crates and its tests pass =="
cargo test -q --offline --locked --manifest-path perfbench/Cargo.toml

echo "== login-storm gate (warm >= 2x cold; auto-skipped below 4 cores) =="
BENCH_LOGIN_STORM_JSON=0 cargo bench --offline -p dri-bench --bench login_storm -- skip_criterion_timing_loop

echo "All checks passed."
