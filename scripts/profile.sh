#!/usr/bin/env bash
# Samples where host time goes in one perfbench workload.
#
#   scripts/profile.sh <workload> [seconds]
#
# Builds perfbench (release, offline), runs `--workload <workload> --seed 3
# --seconds <seconds> --trace 0` (default 10 s, plus perfbench's 3 s of
# unmeasured warm-up runs) under `gprofng collect app` with clock
# profiling, then prints the 25 functions with the most exclusive CPU time
# and the callers and callees of the top five. The experiment lives in a
# temporary directory that is removed on exit. Workloads: gap_dripper,
# mix4_os64m, qmm_replay_permit.
set -euo pipefail

usage="usage: scripts/profile.sh <workload> [seconds]"
[[ $# -ge 1 && $# -le 2 ]] || { echo "$usage" >&2; exit 2; }
workload=$1
seconds=${2:-10}
[[ $seconds =~ ^[0-9]+$ ]] || { echo "$usage" >&2; exit 2; }
command -v gprofng >/dev/null || { echo "gprofng not found (binutils)" >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
target="$root/perfbench/target"
cargo build --release --offline --quiet \
    --manifest-path "$root/perfbench/Cargo.toml" --target-dir "$target"
bin="$target/release/pagecross-perfbench"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
exp="$tmp/perfbench.er"

# perfbench resolves its scratch paths from the repository root.
(cd "$root" && gprofng collect app -o "$exp" -F off \
    "$bin" --workload "$workload" --seed 3 --seconds "$seconds" --trace 0) \
    >"$tmp/stdout" 2>"$tmp/stderr" || {
    cat "$tmp/stderr" >&2
    exit 1
}
grep -E '^(mips|ipc) =' "$tmp/stdout" || true
echo

gprofng display text -limit 25 -functions "$exp"

# Names of the top five by exclusive time: the rows after `<Total>`, with
# the four time and percentage columns stripped.
gprofng display text -limit 6 -functions "$exp" 2>/dev/null |
    sed -n '/<Total>/,$p' | tail -n +2 | sed -E 's/^ *([0-9.]+ +){4}//' |
    while IFS= read -r name; do
        echo
        echo "=== $name"
        gprofng display text -csingle "$name" "$exp" | sed -n '/=====/,$p'
    done
