#!/usr/bin/env sh
# Tier-1 verification (see ROADMAP.md): release build + full test suite.
# Fully offline — the workspace has no external dependencies, so this
# works without network access or a pre-populated cargo registry.
#
# Usage: scripts/tier1.sh
set -eu

cd "$(dirname "$0")/.."

# --workspace everywhere: the root manifest is itself a package, so bare
# `cargo build`/`cargo test` here would cover only the root crate and
# leave e.g. the release CLI binary stale for the smoke runs below.
echo "== tier-1: cargo build --release --workspace =="
cargo build --release --workspace

echo "== tier-1: cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo check perfbench =="
# The benchmark builds against the crates through path dependencies and
# its own committed lock file; checking it here catches a public-API
# change that would break it.
cargo check --release --offline --manifest-path perfbench/Cargo.toml

echo "== tier-1: cargo test -q --workspace =="
cargo test -q --workspace

echo "== tier-1: conformance fuzz smoke =="
sh scripts/fuzz-smoke.sh

echo "== tier-1: fault-injection smoke =="
sh scripts/fault-smoke.sh

echo "== tier-1: bytecode-machine smoke =="
sh scripts/vm-smoke.sh

echo "== tier-1: telemetry/profiling smoke =="
sh scripts/profile-smoke.sh

echo "== tier-1: arena/zero-copy smoke =="
sh scripts/arena-smoke.sh

echo "== tier-1: error-recovery smoke =="
sh scripts/recovery-smoke.sh

echo "== tier-1: profile-guided-optimization smoke =="
sh scripts/pgo-smoke.sh

echo "== tier-1: bulk-scanning smoke =="
sh scripts/simd-smoke.sh

echo "== tier-1: OK =="
