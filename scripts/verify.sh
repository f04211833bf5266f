#!/usr/bin/env bash
# Hermetic build-and-test gate.
#
# Proves the workspace builds and passes its full test suite with NO access
# to any crate registry: cargo runs offline against an empty, throwaway
# CARGO_HOME, so any dependency that is not vendored in-repo fails the
# build immediately. This is the enforcement mechanism behind the
# zero-external-dependency policy (see DESIGN.md).
#
# Usage: scripts/verify.sh [--keep-target]
#   --keep-target  reuse the existing target/ dir (faster local runs);
#                  by default a scratch target dir is used so the check
#                  cannot be satisfied by stale pre-downloaded artifacts.

set -euo pipefail
cd "$(dirname "$0")/.."

KEEP_TARGET=0
for arg in "$@"; do
    case "$arg" in
        --keep-target) KEEP_TARGET=1 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# Empty CARGO_HOME: no registry index, no cached .crate files, no config.
export CARGO_HOME="$SCRATCH/cargo-home"
mkdir -p "$CARGO_HOME"

if [ "$KEEP_TARGET" -eq 0 ]; then
    export CARGO_TARGET_DIR="$SCRATCH/target"
fi

echo "== verify: offline release build (empty registry) =="
cargo build --release --offline --workspace

echo "== verify: offline test suite =="
cargo test -q --offline --workspace

echo "== verify: record -> replay round trip =="
# Record a short trace, replay it, and check the replay output is
# bit-identical to the direct run — offline, in a throwaway directory.
PAGECROSS="${CARGO_TARGET_DIR:-target}/release/pagecross"
TRACE_DIR="$SCRATCH/traces"
mkdir -p "$TRACE_DIR"
"$PAGECROSS" record --workload qmm_int.s00 --warmup 5000 --instructions 20000 \
    --out "$TRACE_DIR/qmm_int.s00.pct"
"$PAGECROSS" run --workload qmm_int.s00 --warmup 5000 --instructions 20000 \
    > "$SCRATCH/direct.txt"
"$PAGECROSS" run --trace "$TRACE_DIR/qmm_int.s00.pct" \
    --warmup 5000 --instructions 20000 > "$SCRATCH/replay.txt"
if ! diff -u "$SCRATCH/direct.txt" "$SCRATCH/replay.txt"; then
    echo "verify: FAIL — replay output differs from the direct run" >&2
    exit 1
fi
"$PAGECROSS" campaign --trace-dir "$TRACE_DIR" --jobs 2 > /dev/null

echo "== verify: a misspelt flag exits 2 =="
CODE=0
"$PAGECROSS" run --workload gap.s00 --polcy permit 2> /dev/null || CODE=$?
if [ "$CODE" -ne 2 ]; then
    echo "verify: FAIL — 'run --polcy permit' exited $CODE, expected 2" >&2
    exit 1
fi

echo "== verify: telemetry smoke (JSONL + chrome trace) =="
# Telemetry must validate against its own checker and must not change the
# report block (everything before the telemetry summary lines).
"$PAGECROSS" run --workload qmm_int.s00 --warmup 5000 --instructions 20000 \
    --telemetry-out "$SCRATCH/telemetry.jsonl" --telemetry-interval 10000 \
    --telemetry-trace "$SCRATCH/trace.json" > "$SCRATCH/telemetry-run.txt"
"$PAGECROSS" check-telemetry --jsonl "$SCRATCH/telemetry.jsonl"
if ! grep -q '"traceEvents"' "$SCRATCH/trace.json"; then
    echo "verify: FAIL — chrome trace missing traceEvents array" >&2
    exit 1
fi
if ! diff -u "$SCRATCH/direct.txt" <(grep -v '^telemetry\|^trace ' "$SCRATCH/telemetry-run.txt"); then
    echo "verify: FAIL — telemetry collection changed the report output" >&2
    exit 1
fi

echo "== verify: OS model smoke (faults + shootdowns live, OS-off inert) =="
# A 64 MB machine with thp=0.5 must demand-page (minor faults) and issue
# TLB shootdowns, and its JSONL stream (now carrying d_os_* deltas) must
# still satisfy the re-summing checker.
"$PAGECROSS" run --workload gap.s00 --warmup 5000 --instructions 20000 \
    --os on --phys-mem 64M --thp 0.5 \
    --telemetry-out "$SCRATCH/os.jsonl" --telemetry-interval 10000 \
    > "$SCRATCH/os-run.txt"
"$PAGECROSS" check-telemetry --jsonl "$SCRATCH/os.jsonl"
OS_MINOR=$(awk '/^os /{print $3}' "$SCRATCH/os-run.txt")
OS_SHOOTDOWNS=$(awk '/^os /{print $13}' "$SCRATCH/os-run.txt")
if [ -z "$OS_MINOR" ] || [ "$OS_MINOR" -eq 0 ] || [ "$OS_SHOOTDOWNS" -eq 0 ]; then
    echo "verify: FAIL — OS run expected nonzero faults and shootdowns," \
         "got minor=${OS_MINOR:-missing} shootdowns=${OS_SHOOTDOWNS:-missing}" >&2
    exit 1
fi
# OS off (the default) must be byte-identical to not passing the flag at
# all: the model is strictly opt-in.
"$PAGECROSS" run --workload gap.s00 --warmup 5000 --instructions 20000 \
    > "$SCRATCH/no-os.txt"
"$PAGECROSS" run --workload gap.s00 --warmup 5000 --instructions 20000 \
    --os off > "$SCRATCH/os-off.txt"
if ! diff -u "$SCRATCH/no-os.txt" "$SCRATCH/os-off.txt"; then
    echo "verify: FAIL — '--os off' output differs from the default" >&2
    exit 1
fi
if grep -q '^os ' "$SCRATCH/no-os.txt"; then
    echo "verify: FAIL — OS-disabled report printed an os counter line" >&2
    exit 1
fi

echo "== verify: OK =="
