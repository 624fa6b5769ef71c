#!/usr/bin/env bash
# Hermetic-build gate: the workspace must build, test and bench-compile with
# the network unplugged, and no registry dependency may creep back into any
# manifest. Run from anywhere; operates on the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> checking manifests for registry dependencies"
# Workspace-path and std-only is the rule: any mention of the crates we
# replaced (rand/proptest/criterion/parking_lot/serde) or any version-keyed
# dependency that is not `path = ...` is a failure.
if grep -rn "rand\|proptest\|criterion\|parking_lot\|serde" \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: registry dependency found in a manifest" >&2
    exit 1
fi
bad=$(python3 - <<'EOF'
import glob, re
bad = []
for m in ["Cargo.toml", *glob.glob("crates/*/Cargo.toml")]:
    section = None
    for i, line in enumerate(open(m), 1):
        line = line.split("#")[0].rstrip()
        h = re.match(r"\[(.+)\]$", line.strip())
        if h:
            section = h.group(1)
            continue
        if section and ("dependencies" in section):
            if re.match(r'\s*[\w-]+\s*=\s*"', line):  # name = "x.y" → registry
                bad.append(f"{m}:{i}: {line.strip()}")
            if "version" in line and "path" not in line:
                bad.append(f"{m}:{i}: {line.strip()}")
print("\n".join(bad))
EOF
)
if [ -n "$bad" ]; then
    echo "error: version-keyed (registry) dependencies found:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    ok: all dependencies are workspace-path deps"

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --offline"
cargo test --offline --workspace -q

echo "==> txnbench smoke test (every benchmark workload tiny, with its verify checks)"
# The benchmark in txnbench/ is its own cargo workspace over the crates by
# path. Its smoke test runs every workload at a tiny size, traced and
# untraced, through the same checks as a full run: versions installed equal
# committed writers, the final snapshot reads back every thread's last
# write, the lock table and journal drain. The benchmark refuses to run
# under any COLOCK_* variable, so they are cleared for this step.
(
    for v in $(compgen -e | grep '^COLOCK_' || true); do unset "$v"; done
    cargo test --offline --manifest-path txnbench/Cargo.toml
)

echo "==> rustdoc builds warning-free"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

echo "==> cargo bench compiles (no run)"
cargo bench --offline --workspace --no-run -q

echo "==> colock_check --self-test (static analysis + linted contention demo)"
# Exercises both the clean path and the detected-cycle accounting: the
# self-test runs the trace_explain forced-deadlock demo under the linter and
# requires at least one detected and resolved deadlock with zero violations,
# plus the certifier mutation check (a seeded write-skew the linter passes
# must fail certification).
cargo run --offline --release -q -p colock-bench --bin colock_check -- --self-test

echo "==> colock_check --certify round trip (clean demo passes, forced cycle flagged)"
# End-to-end file modes of the serializability certifier: the contention
# demo trace must certify (its deadlock victim aborted; the committed
# survivors are acyclic), the seeded write-skew trace must be refused with
# a non-zero exit.
certify_tmp=$(mktemp -d)
trap 'rm -rf "$certify_tmp"' EXIT
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --dump demo "$certify_tmp/demo.trace"
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --dump skew "$certify_tmp/skew.trace"
cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --certify "$certify_tmp/demo.trace"
if cargo run --offline --release -q -p colock-bench --bin colock_check -- \
    --certify "$certify_tmp/skew.trace" >/dev/null 2>&1; then
    echo "error: the seeded write-skew trace must fail certification" >&2
    exit 1
fi
echo "    ok: clean demo certified, forced cycle refused"

echo "==> stress_explore (DPOR interleaving explorer, linted + certified)"
# Enumerates distinct schedules of the 3-txn hot-HoLU insert storm and a
# 2-txn guaranteed-deadlock scenario through the lock table's yield points;
# every explored interleaving must lint clean and certify
# conflict-serializable, and every explored deadlock must resolve live.
COLOCK_EXPLORE_MAX_SCHEDULES="${COLOCK_EXPLORE_MAX_SCHEDULES:-600}" \
    cargo run --offline --release -q -p colock-bench --bin stress_explore

echo "==> stress_lockmgr (bounded rounds, linted)"
COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-40}" \
    cargo run --offline --release -q -p colock-bench --bin stress_lockmgr

echo "==> stress_insert_storm (hot-HoLU commuting inserts, linted)"
# The semantic-mode acceptance workload: N writers insert distinct elements
# into ONE set-valued HoLU. Runs twice under COLOCK_CHECK=1 — semantic modes
# on (inserters commute via Insert on the container) and the
# COLOCK_NO_SEMANTIC=1 ablation (every insert X-locks the container) — both
# must keep every per-round invariant and lint clean.
COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-20}" \
    cargo run --offline --release -q -p colock-bench --bin stress_insert_storm
COLOCK_NO_SEMANTIC=1 COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS=10 \
    cargo run --offline --release -q -p colock-bench --bin stress_insert_storm

echo "==> stress_recovery (bounded fault-injection sweep, linted)"
COLOCK_CHECK=1 COLOCK_RECOVERY_ROUNDS="${COLOCK_RECOVERY_ROUNDS:-10}" \
    cargo run --offline --release -q -p colock-bench --bin stress_recovery

echo "==> stress_snapshot (read-mostly storm against the MVCC overlay, linted)"
# 70% snapshot readers against writers under COLOCK_CHECK=1: every round
# asserts reads_elided matches the reader histogram, the lock table drains,
# and the linter sees no snapshot txn in any lock-manager event.
COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS="${COLOCK_STRESS_ROUNDS:-40}" \
    cargo run --offline --release -q -p colock-bench --bin stress_snapshot

echo "==> loopback serving smoke (loadgen small budget, linted)"
# Real TCP over loopback at a bounded scale: 40 sessions, 300 txns through
# the full mix. COLOCK_CHECK=1 replays the entire served trace window
# through the protocol linter — served traffic must be as conformant as
# in-process traffic.
COLOCK_CHECK=1 COLOCK_LOAD_SESSIONS=40 COLOCK_LOAD_WORKERS=4 COLOCK_LOAD_TXNS=300 \
    cargo run --offline --release -q -p colock-bench --bin loadgen

echo "==> stress_server (one kill/restart recovery round over TCP, linted)"
# §3.1 durability end to end: clients check out long locks over TCP, the
# server is killed, a new one recovers the journal, every acked lock must
# be re-adopted and resumable by reconnecting clients.
COLOCK_CHECK=1 COLOCK_SERVER_ROUNDS="${COLOCK_SERVER_ROUNDS:-1}" \
    cargo run --offline --release -q -p colock-bench --bin stress_server

echo "==> differential fast-path equivalence suite"
# The optimistic/pessimistic differential harness runs both paths itself;
# this run keeps it in the gate so a fast-path change cannot land without
# the observational-equivalence proof passing.
cargo test --offline -q -p colock-sim --test differential

echo "==> stress + differential with the adaptive policy enabled"
# COLOCK_ADAPTIVE=1 switches on wait-depth limiting, histogram-driven
# escalation thresholds and hot-spot victim selection; the same invariants
# and the linter must hold with the policy live.
COLOCK_ADAPTIVE=1 COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS=10 \
    cargo run --offline --release -q -p colock-bench --bin stress_lockmgr
COLOCK_ADAPTIVE=1 COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS=10 \
    cargo run --offline --release -q -p colock-bench --bin stress_insert_storm
COLOCK_ADAPTIVE=1 cargo test --offline -q -p colock-sim --test differential

echo "==> stress harnesses with the fast path disabled"
# One bounded round of each with COLOCK_NO_FASTPATH=1: the classic
# shard-mutex path must keep passing the same per-round invariants
# (gate identity trivially zero, summary words re-derivable).
COLOCK_NO_FASTPATH=1 COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS=10 \
    cargo run --offline --release -q -p colock-bench --bin stress_lockmgr
COLOCK_NO_FASTPATH=1 COLOCK_CHECK=1 COLOCK_RECOVERY_ROUNDS=5 \
    cargo run --offline --release -q -p colock-bench --bin stress_recovery

echo "==> stress_snapshot with the overlay disabled (locking fallback)"
# COLOCK_NO_MVCC=1 drops read-only txns to the S-locking fallback: the same
# storm must still commit every round with zero elided reads and a drained
# table, proving the toggle is safe under contention.
COLOCK_NO_MVCC=1 COLOCK_CHECK=1 COLOCK_STRESS_ROUNDS=10 \
    cargo run --offline --release -q -p colock-bench --bin stress_snapshot

echo "==> shard-scaling bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_shard_scaling -q

echo "==> recovery bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_recovery -q

echo "==> snapshot-read bench (small budget)"
COLOCK_BENCH_MS="${COLOCK_BENCH_MS:-50}" \
    cargo bench --offline -p colock-bench --bench bench_snapshot -q

echo "==> all checks passed"
