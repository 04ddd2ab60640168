#!/usr/bin/env bash
# Guard the committed perf baselines (BENCH_dram.json, BENCH_campaign.json,
# BENCH_layers.json).
#
# Runs the dram_hammer and campaign_scaling benches, and the per-layer
# buddy_alloc, viommu_store, ept_walk and attack_stages benches, in quick
# mode (HH_BENCH_QUICK=1), captures their machine-readable reports via
# HH_BENCH_JSON (the four layer reports merged into one), and compares
# each against the committed baseline with
# `hyperhammer-sim bench-diff`. Exits non-zero when any bench regresses
# beyond the tolerance or disappears from the current run; improvements
# beyond the tolerance never fail, but print a re-baseline hint (a stale
# baseline would let regressions hide under it). Quick-mode
# reports are only comparable with quick-mode baselines (the JSON schema
# records which mode produced it and bench-diff refuses to mix them), so
# the committed baselines are quick-mode runs too.
#
# usage: scripts/bench_diff.sh [--tolerance F] [--update]
#   --tolerance F   allowed relative slowdown before failing
#                   (default 0.15 = +15%)
#   --update        re-baseline: overwrite the committed BENCH_*.json
#                   with this run instead of diffing against them
set -euo pipefail

cd "$(dirname "$0")/.."

TOLERANCE=0.15
UPDATE=0
while [ "$#" -gt 0 ]; do
    case "$1" in
        --tolerance)
            TOLERANCE="${2:?--tolerance needs a value}"
            shift 2
            ;;
        --update)
            UPDATE=1
            shift
            ;;
        *)
            echo "usage: scripts/bench_diff.sh [--tolerance F] [--update]" >&2
            exit 2
            ;;
    esac
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "==> build hyperhammer-sim (release, offline)"
cargo build --release --offline --locked -p hyperhammer-cli

bench_json() { # <bench target> <output path>
    echo "==> cargo bench -p hh-bench --bench $1 (quick)"
    HH_BENCH_QUICK=1 HH_BENCH_JSON="$2" \
        cargo bench --offline --locked -p hh-bench --bench "$1"
}

# Concatenates the records of several reports (same schema and mode)
# into one report on stdout, in argument order.
merge_reports() { # <report>...
    awk '
        /^    \{"name"/ { sub(/,$/, ""); recs[n++] = $0; next }
        NR == FNR && n == 0 { head = head $0 "\n" }
        END {
            printf "%s", head
            for (i = 0; i < n; i++) printf "%s%s\n", recs[i], (i + 1 < n ? "," : "")
            print "  ]"
            print "}"
        }' "$@"
}

bench_json dram_hammer "$tmpdir/BENCH_dram.json"
bench_json campaign_scaling "$tmpdir/BENCH_campaign.json"
bench_json buddy_alloc "$tmpdir/buddy_alloc.json"
bench_json viommu_store "$tmpdir/viommu_store.json"
bench_json ept_walk "$tmpdir/ept_walk.json"
bench_json attack_stages "$tmpdir/attack_stages.json"
merge_reports "$tmpdir/buddy_alloc.json" "$tmpdir/viommu_store.json" \
    "$tmpdir/ept_walk.json" "$tmpdir/attack_stages.json" \
    >"$tmpdir/BENCH_layers.json"

if [ "$UPDATE" -eq 1 ]; then
    for name in dram campaign layers; do
        cp "$tmpdir/BENCH_${name}.json" "BENCH_${name}.json"
    done
    echo "bench_diff: baselines rewritten — review and commit" \
        "BENCH_dram.json BENCH_campaign.json BENCH_layers.json"
    exit 0
fi

status=0
for name in dram campaign layers; do
    echo "==> bench-diff BENCH_${name}.json (tolerance ${TOLERANCE})"
    if ! ./target/release/hyperhammer-sim bench-diff \
        --baseline "BENCH_${name}.json" \
        --current "$tmpdir/BENCH_${name}.json" \
        --tolerance "$TOLERANCE"; then
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "bench_diff: FAILED — regression(s) beyond tolerance, see above" >&2
    echo "bench_diff: if the slowdown is intended, re-baseline with" \
        "scripts/bench_diff.sh --update and commit the result" >&2
else
    echo "bench_diff: OK — within tolerance of the committed baselines"
    echo "bench_diff: (an 'improved' note above means the baseline now" \
        "understates real perf — lock it in with scripts/bench_diff.sh --update)"
fi
exit "$status"
