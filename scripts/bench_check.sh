#!/usr/bin/env bash
# Bench regression gate: compare freshly generated bench reports
# against the baselines committed at HEAD.
#
#   scripts/bench_check.sh [FRESH_SERVE] [FRESH_REGTREE]
#
# Hard failure (exit 1) on a regression beyond THRESHOLD_PCT (default
# 25%) in the metrics stable enough to gate on: the daemon's frame-ack
# p99 and the regression-tree kernel medians (fit_cached, fit_columnar,
# sse_batch, cv_parallel, diff_fit, fit_incremental). A gated stage
# missing from the FRESH report
# is also a hard failure — a silently dropped stage must not pass the
# gate; a stage missing only from the committed baseline is skipped
# (the baseline predates the stage).
# Noisier metrics — aggregate throughput, resume latency, the scalar
# oracle paths — only emit GitHub `::warning::` annotations, so a noisy
# runner cannot turn the lane red on its own.
#
# A missing baseline (file not committed at HEAD) skips that file with
# a note rather than failing: the first run on a new branch has nothing
# to compare against.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH_SERVE="${1:-BENCH_serve.json}"
FRESH_REGTREE="${2:-BENCH_regtree.json}"
THRESHOLD_PCT="${THRESHOLD_PCT:-25}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0

compare() { # fresh-file kind
    local fresh="$1" kind="$2"
    local base="$TMP/$kind.base.json"
    if [ ! -f "$fresh" ]; then
        echo "bench_check: $fresh not found; generate it first" >&2
        status=1
        return
    fi
    if ! git show "HEAD:$(basename "$fresh")" >"$base" 2>/dev/null; then
        echo "bench_check: no committed baseline for $(basename "$fresh"); skipping"
        return
    fi
    python3 - "$fresh" "$base" "$kind" "$THRESHOLD_PCT" <<'PY' || status=1
import json
import sys

fresh_path, base_path, kind, thr = sys.argv[1:5]
thr = float(thr)
with open(fresh_path) as f:
    fresh = json.load(f)
with open(base_path) as f:
    base = json.load(f)


def stage_median(report, name):
    for s in report.get("stages", []):
        if s.get("name") == name:
            return s.get("median_ms")
    return None


# (label, fresh value, baseline value, higher_is_better)
if kind == "serve":
    hard = [
        ("frame-ack latency_p99_ms", fresh.get("latency_p99_ms"),
         base.get("latency_p99_ms"), False),
    ]
    soft = [
        ("aggregate_throughput_samples_per_sec",
         fresh.get("aggregate_throughput_samples_per_sec"),
         base.get("aggregate_throughput_samples_per_sec"), True),
        ("resume_latency_p99_ms", fresh.get("resume_latency_p99_ms"),
         base.get("resume_latency_p99_ms"), False),
    ]
else:
    hard = [
        ("fit_cached median_ms", stage_median(fresh, "fit_cached"),
         stage_median(base, "fit_cached"), False),
        ("fit_columnar median_ms", stage_median(fresh, "fit_columnar"),
         stage_median(base, "fit_columnar"), False),
        ("sse_batch median_ms", stage_median(fresh, "sse_batch"),
         stage_median(base, "sse_batch"), False),
        ("cv_parallel median_ms", stage_median(fresh, "cv_parallel"),
         stage_median(base, "cv_parallel"), False),
        ("diff_fit median_ms", stage_median(fresh, "diff_fit"),
         stage_median(base, "diff_fit"), False),
        ("fit_incremental median_ms", stage_median(fresh, "fit_incremental"),
         stage_median(base, "fit_incremental"), False),
    ]
    soft = [
        ("fit_scalar median_ms", stage_median(fresh, "fit_scalar"),
         stage_median(base, "fit_scalar"), False),
        ("sse_scalar median_ms", stage_median(fresh, "sse_scalar"),
         stage_median(base, "sse_scalar"), False),
        ("cv_serial median_ms", stage_median(fresh, "cv_serial"),
         stage_median(base, "cv_serial"), False),
        ("fit_stream_scratch median_ms", stage_median(fresh, "fit_stream_scratch"),
         stage_median(base, "fit_stream_scratch"), False),
    ]


def regression_pct(f, b, higher_is_better):
    """Positive = worse than baseline, as a percentage of baseline."""
    if f is None or b is None or b == 0:
        return None
    return ((b - f) if higher_is_better else (f - b)) / b * 100.0


failed = False
for gating, metrics in ((True, hard), (False, soft)):
    for label, f, b, hib in metrics:
        if f is None:
            # The fresh report must carry every gated stage: a dropped
            # stage is indistinguishable from a silently skipped bench.
            if gating:
                print(f"::error::{kind}: gated metric {label} missing "
                      f"from fresh report {fresh_path}")
                failed = True
            else:
                print(f"::warning::{kind}: soft metric {label} missing "
                      f"from fresh report {fresh_path}")
            continue
        r = regression_pct(f, b, hib)
        if r is None:
            print(f"bench_check: {kind}: {label}: no committed baseline "
                  f"(fresh={f!r} baseline={b!r}); skipping")
            continue
        word = "regression" if r > 0 else "improvement"
        print(f"bench_check: {kind}: {label}: baseline {b:.3f} -> "
              f"fresh {f:.3f} ({abs(r):.1f}% {word})")
        if r > thr:
            if gating:
                print(f"::error::{kind}: {label} regressed {r:.1f}% "
                      f"(threshold {thr:.0f}%)")
                failed = True
            else:
                print(f"::warning::{kind}: {label} regressed {r:.1f}% "
                      f"(soft metric, not gating)")

sys.exit(1 if failed else 0)
PY
}

compare "$FRESH_SERVE" serve
compare "$FRESH_REGTREE" regtree

if [ "$status" -ne 0 ]; then
    echo "bench_check: FAILED (see ::error:: lines above)" >&2
    exit 1
fi
echo "bench_check: OK (no gating metric regressed > ${THRESHOLD_PCT}%)"
