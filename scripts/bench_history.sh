#!/usr/bin/env bash
# Bench trajectory recorder: appends one JSON line per push — commit
# SHA, UTC timestamp, `nproc`, the regtree stage medians, the daemon's
# headline serve metrics, and the program's size in non-test Rust lines
# (`loc`: per crate and in total, counting the lines of every file under
# `crates/*/src` above its first `#[cfg(test)]`; vendored crates and
# integration tests are not counted) — to a history file that CI restores
# from a rolling cache and uploads as the `bench-history` artifact.
# The trajectory accumulates across pushes instead of each run
# overwriting the last report.
#
#   scripts/bench_history.sh [HISTORY_FILE] [FRESH_REGTREE] [FRESH_SERVE]
#
# Appending is idempotent per commit: if the last line already carries
# the current SHA (a re-run of the same push), it is replaced rather
# than duplicated.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-bench-history/bench_history.jsonl}"
FRESH_REGTREE="${2:-BENCH_regtree.json}"
FRESH_SERVE="${3:-BENCH_serve.json}"

mkdir -p "$(dirname "$OUT")"

python3 - "$OUT" "$FRESH_REGTREE" "$FRESH_SERVE" <<'PY'
import datetime
import glob
import json
import os
import subprocess
import sys

out_path, regtree_path, serve_path = sys.argv[1:4]

sha = os.environ.get("GITHUB_SHA")
if not sha:
    sha = subprocess.check_output(
        ["git", "rev-parse", "HEAD"], text=True
    ).strip()

entry = {
    "sha": sha,
    "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    ),
    "nproc": os.cpu_count(),
}

try:
    with open(regtree_path) as f:
        report = json.load(f)
    entry["regtree_median_ms"] = {
        s["name"]: s["median_ms"] for s in report.get("stages", [])
    }
except (OSError, ValueError) as e:
    print(f"bench_history: skipping regtree medians: {e}", file=sys.stderr)

try:
    with open(serve_path) as f:
        report = json.load(f)
    entry["serve"] = {
        k: report[k]
        for k in (
            "latency_p99_ms",
            "aggregate_throughput_samples_per_sec",
        )
        if k in report
    }
except (OSError, ValueError) as e:
    print(f"bench_history: skipping serve metrics: {e}", file=sys.stderr)

def non_test_loc(src):
    """Lines of every .rs file under `src` above its first #[cfg(test)]."""
    total = 0
    for root, _, files in os.walk(src):
        for name in files:
            if not name.endswith(".rs"):
                continue
            with open(os.path.join(root, name)) as f:
                for line in f:
                    if "#[cfg(test)]" in line:
                        break
                    total += 1
    return total


loc = {
    src.split("/")[1]: non_test_loc(src) for src in sorted(glob.glob("crates/*/src"))
}
entry["loc"] = {"crates": loc, "total": sum(loc.values())}

lines = []
if os.path.exists(out_path):
    with open(out_path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]

# Re-runs of the same commit replace its line instead of duplicating it.
if lines:
    try:
        if json.loads(lines[-1]).get("sha") == sha:
            lines.pop()
    except ValueError:
        pass

lines.append(json.dumps(entry, sort_keys=True))
with open(out_path, "w") as f:
    f.write("\n".join(lines) + "\n")

print(f"bench_history: {len(lines)} entries in {out_path}; latest:")
print(lines[-1])
PY
