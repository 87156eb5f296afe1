#!/usr/bin/env sh
# Runs the query-path fast-lane benchmark suite — plan cache (internal/aqe),
# zero-copy history scans (internal/queue), indexed archive reads
# (internal/archive) — and writes a BENCH_<n>.json snapshot so the query-path
# perf trajectory is tracked across PRs.
# Usage: scripts/bench_query.sh [n]   (default n=4)
set -eu

cd "$(dirname "$0")/.."
N="${1:-4}"
OUT="BENCH_${N}.json"
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run xxx \
    -bench 'BenchmarkQueryColdParse|BenchmarkQueryCachedPlan|BenchmarkQueryAggregateScan' \
    -benchtime 500ms ./internal/aqe/ | tee "$RAW"
go test -run xxx \
    -bench 'BenchmarkHistoryRangeCopy|BenchmarkHistoryRangeFunc' \
    -benchmem -benchtime 500ms ./internal/queue/ | tee -a "$RAW"
go test -run xxx \
    -bench 'BenchmarkArchiveRangeIndexed|BenchmarkArchiveReplayLinear' \
    -benchtime 200x ./internal/archive/ | tee -a "$RAW"

python3 - "$RAW" "$OUT" <<'EOF'
import json, re, subprocess, sys

raw, out = sys.argv[1], sys.argv[2]
results = {}
cpu = goos = ""
for line in open(raw):
    if line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    if line.startswith("goos:"):
        goos = line.split(":", 1)[1].strip()
    m = re.match(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)", line)
    if not m:
        continue
    name, iters, ns, rest = m.group(1), int(m.group(2)), float(m.group(3)), m.group(4)
    entry = {"iterations": iters, "ns_per_op": ns}
    ba = re.search(r"(\d+) B/op", rest)
    if ba:
        entry["bytes_per_op"] = int(ba.group(1))
    al = re.search(r"(\d+) allocs/op", rest)
    if al:
        entry["allocs_per_op"] = int(al.group(1))
    rb = re.search(r"([\d.]+) readbytes/op", rest)
    if rb:
        entry["read_bytes_per_op"] = float(rb.group(1))
    results[name] = entry

def ns(name):
    return results.get(name, {}).get("ns_per_op")

summary = {}
cold, cached = ns("BenchmarkQueryColdParse"), ns("BenchmarkQueryCachedPlan")
if cold and cached:
    summary["cached_plan_speedup_vs_cold_parse"] = round(cold / cached, 2)
copy, zc = ns("BenchmarkHistoryRangeCopy"), ns("BenchmarkHistoryRangeFunc")
if copy and zc:
    summary["rangefunc_speedup_vs_copy"] = round(copy / zc, 2)
zc_allocs = results.get("BenchmarkHistoryRangeFunc", {}).get("allocs_per_op")
if zc_allocs is not None:
    summary["rangefunc_allocs_per_op"] = zc_allocs
lin, idx = ns("BenchmarkArchiveReplayLinear"), ns("BenchmarkArchiveRangeIndexed")
if lin and idx:
    summary["indexed_range_speedup_vs_linear_replay"] = round(lin / idx, 2)
lin_b = results.get("BenchmarkArchiveReplayLinear", {}).get("read_bytes_per_op")
idx_b = results.get("BenchmarkArchiveRangeIndexed", {}).get("read_bytes_per_op")
if lin_b and idx_b:
    summary["indexed_range_bytes_read_ratio"] = round(lin_b / idx_b, 2)

go_version = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
doc = {
    "bench": "query-path fast lane: plan cache, zero-copy history scans, indexed archive reads",
    "go": go_version,
    "goos": goos,
    "cpu": cpu,
    "results": results,
    "summary": summary,
}
json.dump(doc, open(out, "w"), indent=2)
print(f"wrote {out}: {summary}")
EOF
