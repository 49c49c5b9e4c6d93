#!/usr/bin/env bash
# Smoke check of the benchmark: builds it offline, runs its unit tests,
# runs every workload untraced and traced with --quick (1/20 of the ops;
# bounds do not apply, self-checks and the oracle do), and checks that
# each run prints every metric BENCHMARK.json declares for that mode,
# once, with the declared unit. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml

start=$(date +%s)
for workload in scan_miss hot_hit fanout_batch update_repair; do
  for trace in 0 1; do
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed 7 --seconds 15 --trace "$trace" --quick)
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
workload, trace = sys.argv[1], sys.argv[2]
line = sys.stdin.read()
result = json.loads(line)
sheet = json.load(open("BENCHMARK.json"))
declared = sheet["per_layer" if trace == "1" else "end_to_end"]
assert workload in [w["name"] for w in sheet["workloads"]], workload
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, line
assert len(result["metrics"]) == len(declared), (len(result["metrics"]), len(declared))
for m in declared:
    assert line.count("\"%s\": {" % m["name"]) == 1, "%s printed %d times" % (m["name"], line.count("\"%s\": {" % m["name"]))
    got = result["metrics"][m["name"]]
    assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
    assert isinstance(got["value"], (int, float)), (m["name"], got["value"])
print("ok  %-14s trace %s  %3d metrics, %d ops" % (workload, trace, len(declared), result["attempted"]))
' "$workload" "$trace"
  done
done
elapsed=$(( $(date +%s) - start ))
echo "all workloads ran and checked in ${elapsed} s"
test "$elapsed" -lt 30
