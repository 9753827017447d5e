#!/usr/bin/env bash
# Local CI: the default Release build + test run, then the same suite under
# UBSan (O2SR_SANITIZE=undefined). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== Release build + tests ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "=== Scalar kernel table: goldens + planned/eager under O2SR_SIMD=scalar ==="
# ctest exercises only the auto-selected kernel table (AVX2 where the CPU
# has it). The scalar reference table must reproduce the same pinned
# predictions and planned/eager equality (DESIGN.md §13).
O2SR_SIMD=scalar ./build/tests/golden_test
O2SR_SIMD=scalar ./build/tests/plan_exec_test

echo "=== Knob smoke: a misspelled or out-of-list O2SR_* variable is fatal ==="
# Each run must exit non-zero before doing any work and name the variable
# on stderr (the knob table in src/common/env.cc refuses unknown names and
# words outside a choice list).
KNOB_DIR="$(mktemp -d)"
for knob in O2SR_THREAD=4 O2SR_SIMD=avx3; do
  if KNOB_ERR="$(cd "${KNOB_DIR}" && env O2SR_BENCH_SCALE=small "${knob}" \
       "${OLDPWD}/build/bench/bench_fig01_supply_demand" 2>&1 >/dev/null)"
  then
    echo "knob smoke: ${knob} ran instead of failing" >&2
    exit 1
  fi
  if ! grep -q "${knob%%=*}=" <<<"${KNOB_ERR}"; then
    echo "knob smoke: ${knob} failed without naming ${knob%%=*}:" >&2
    echo "${KNOB_ERR}" >&2
    exit 1
  fi
done
rm -rf "${KNOB_DIR}"
echo "knob smoke: O2SR_THREAD=4 and O2SR_SIMD=avx3 refused"

echo "=== Bench smoke (small scale, machine-readable output) ==="
# The fastest bench binary at small scale; validates that the BENCH_*.json
# artifact is well-formed and carries the keys the perf trajectory relies
# on (scale, per-stage timings from the trace layer, metric cells/values).
SMOKE_DIR="$(mktemp -d)"
(cd "${SMOKE_DIR}" &&
 O2SR_BENCH_SCALE=small \
 O2SR_TRACE_FILE=trace.json \
 O2SR_PROFILE_FILE=profile.json \
 "${OLDPWD}/build/bench/bench_fig01_supply_demand" >/dev/null)
python3 - "${SMOKE_DIR}" <<'EOF'
import json, sys, os
d = sys.argv[1]
bench = json.load(open(os.path.join(d, "BENCH_fig01_supply_demand.json")))
for key in ("bench", "title", "paper_ref", "scale", "seed_count",
            "threads", "build_type", "sanitizer",
            "wall_clock_s", "stages_ms", "cells", "values"):
    assert key in bench, f"BENCH json missing key {key!r}"
assert bench["bench"] == "fig01_supply_demand"
assert bench["scale"] == "small"
assert "bench.fig01_supply_demand" in bench["stages_ms"], bench["stages_ms"]
assert any(s.startswith("sim.") for s in bench["stages_ms"]), bench["stages_ms"]
assert bench["values"], "bench emitted no metric values"
# Fixed-precision stage times: at most 3 decimals survive the dump.
for stage, ms in bench["stages_ms"].items():
    assert round(ms, 3) == ms, f"stage {stage!r} not 3-decimal: {ms!r}"
# One clock: the wall clock is the root span's duration, to the
# microsecond.
root_ms = bench["stages_ms"]["bench.fig01_supply_demand"]
assert round(bench["wall_clock_s"] * 1e6) == round(root_ms * 1e3), (
    bench["wall_clock_s"], root_ms)
# Structural trace validation: every event is a complete span carrying the
# Chrome trace_event keys.
trace = json.load(open(os.path.join(d, "trace.json")))
assert trace["traceEvents"], "trace export is empty"
for e in trace["traceEvents"]:
    for key in ("name", "ph", "ts", "dur", "tid"):
        assert key in e, f"trace event missing {key!r}: {e}"
    assert e["ph"] == "X", e
profile = json.load(open(os.path.join(d, "profile.json")))
assert "regions" in profile and "ops" in profile, profile.keys()
assert profile["regions"], "profiler saw no parallel regions"
print("bench smoke: BENCH json + chrome trace OK "
      f"({len(trace['traceEvents'])} spans, wall clock = root span "
      f"{root_ms:.3f} ms)")
EOF
rm -rf "${SMOKE_DIR}"

echo "=== Bench smoke: serial vs 4-thread wall time (Table IV bench) ==="
# Runs the Table IV bench at small scale with 1 and 4 threads, asserts the
# eval metrics are bit-identical (the exec layer's determinism contract),
# and records both wall times into BENCH_table04_overall_simulation.json in
# the repo root so the perf trajectory accumulates thread-scaling data.
PERF_DIR="$(mktemp -d)"
# Keep the committed baseline around: the bench_diff gate below compares
# the fresh report against it before it is overwritten.
BASELINE_TABLE04="${PERF_DIR}/committed_table04.json"
cp BENCH_table04_overall_simulation.json "${BASELINE_TABLE04}"
for t in 1 4; do
  mkdir -p "${PERF_DIR}/t${t}"
  (cd "${PERF_DIR}/t${t}" &&
   O2SR_BENCH_SCALE=small O2SR_THREADS="${t}" \
   O2SR_PROFILE_FILE=profile.json \
   "${OLDPWD}/build/bench/bench_table04_overall_simulation" >/dev/null)
done
python3 - "${PERF_DIR}" "BENCH_table04_overall_simulation.json" <<'EOF'
import json, sys, os
d, out_name = sys.argv[1], sys.argv[2]
serial = json.load(open(os.path.join(d, "t1", out_name)))
threaded = json.load(open(os.path.join(d, "t4", out_name)))
assert serial["threads"] == 1 and threaded["threads"] == 4, (
    serial["threads"], threaded["threads"])
# Determinism contract: identical metric cells at any thread count.
assert serial["cells"] == threaded["cells"], \
    "thread count changed eval metrics"
merged = dict(threaded)
speedup = serial["wall_clock_s"] / max(threaded["wall_clock_s"], 1e-9)
merged["values"] = list(threaded["values"]) + [
    {"label": "wall_clock_s_threads1", "value": serial["wall_clock_s"]},
    {"label": "wall_clock_s_threads4", "value": threaded["wall_clock_s"]},
    {"label": "speedup_threads4", "value": speedup},
]
json.dump(merged, open(out_name, "w"))
# The planned executor's session reuse + coarse grains make 4 threads pay
# off — but only where 4 hardware threads exist; an oversubscribed 1-core
# box measures contention, not the executor.
if (os.cpu_count() or 1) >= 4:
    assert speedup >= 2.5, \
        f"speedup_threads4 {speedup:.2f} below the 2.5 floor on a " \
        f"{os.cpu_count()}-cpu machine"
    scaling = f"speedup {speedup:.2f} >= 2.5"
else:
    scaling = f"speedup {speedup:.2f} (floor not asserted: " \
              f"{os.cpu_count()} cpu)"
print(f"table04 smoke: metrics bit-identical; "
      f"serial {serial['wall_clock_s']:.1f}s vs "
      f"4-thread {threaded['wall_clock_s']:.1f}s; {scaling} -> {out_name}")
EOF

echo "=== Profiler smoke: attribute the thread-scaling gap (Table IV) ==="
# The attribution contract (DESIGN.md §12): every *count* field in the
# profile (regions, chunks, items, op dispatches, bytes) is identical at 1
# and 4 threads — only times may differ — and the 4-thread profile must
# name where the lanes idle, which is the data ROADMAP item 1 needs to
# explain speedup_threads4 ~ 1.0.
python3 - "${PERF_DIR}" <<'EOF'
import json, sys, os
d = sys.argv[1]
p1 = json.load(open(os.path.join(d, "t1", "profile.json")))
p4 = json.load(open(os.path.join(d, "t4", "profile.json")))
assert p1["regions"].keys() == p4["regions"].keys(), (
    set(p1["regions"]) ^ set(p4["regions"]))
for name in p1["regions"]:
    r1, r4 = p1["regions"][name], p4["regions"][name]
    for field in ("regions", "chunks", "items", "min_items", "max_items"):
        assert r1[field] == r4[field], (name, field, r1[field], r4[field])
# Op counts are exact at any thread count, bytes included.
assert p1["ops"] == p4["ops"], set(p1["ops"]) ^ set(p4["ops"])
assert p1["ops"], "table04 recorded no tensor/tape ops"
# The compiled-plan executor's dispatch contract (DESIGN.md §13): every
# kernel region is named (nothing buckets under "(kernel)") and the
# coarse grains cut total chunk count >= 10x below the PR-7 figure of
# 3,161,131 (same bench, same scale, 1 thread).
assert "(kernel)" not in p1["regions"], "unnamed kernel regions in profile"
assert "(kernel)" not in p4["regions"], "unnamed kernel regions in profile"
total_chunks = sum(r["chunks"] for r in p1["regions"].values())
PR7_CHUNKS = 3_161_131
assert total_chunks * 10 <= PR7_CHUNKS, (
    f"total chunk count {total_chunks} not >=10x below the PR-7 "
    f"figure {PR7_CHUNKS}")
# At 4 threads at least one region actually fanned out, and the report
# attributes its efficiency.
dispatched = {n: r for n, r in p4["regions"].items() if r["dispatched"] > 0}
assert dispatched, "no region dispatched at 4 threads"
worst = sorted(dispatched.items(), key=lambda kv: -kv[1]["idle_ms"])[:3]
total_busy = sum(r["busy_ms"] for r in dispatched.values())
total_idle = sum(r["idle_ms"] for r in dispatched.values())
print(f"profiler smoke: {len(p1['regions'])} regions, "
      f"{len(p1['ops'])} ops, counts thread-invariant; "
      f"{total_chunks} chunks (ceiling {PR7_CHUNKS // 10}); "
      f"busy {total_busy:.0f} ms vs idle {total_idle:.0f} ms across "
      f"{len(dispatched)} dispatched regions")
for name, r in worst:
    print(f"  idle hotspot: {name}: eff {r['efficiency']:.2f}, "
          f"idle {r['idle_ms']:.1f} ms over {r['chunks']} chunks "
          f"({r['items']} items)")
EOF

echo "=== bench_diff gate: BENCH regression check ==="
# Self-diff must be clean, an injected quality regression must fail (exit
# 1), a metadata mismatch must refuse (exit 2), and the fresh table04
# report must not regress against the committed baseline (timing fields
# ignored: machine speed is not a regression).
NEW_TABLE04="BENCH_table04_overall_simulation.json"
./build/tools/bench_diff "${NEW_TABLE04}" "${NEW_TABLE04}" >/dev/null
python3 - "${NEW_TABLE04}" "${PERF_DIR}" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
bad = json.loads(json.dumps(report))
for cell in bad["cells"]:
    if "ndcg@3" in cell:
        cell["ndcg@3"] *= 0.7
json.dump(bad, open(sys.argv[2] + "/regressed.json", "w"))
other = json.loads(json.dumps(report))
other["threads"] = 64
json.dump(other, open(sys.argv[2] + "/mismatched.json", "w"))
EOF
if ./build/tools/bench_diff "${NEW_TABLE04}" "${PERF_DIR}/regressed.json" \
     >/dev/null; then
  echo "bench_diff FAILED to flag an injected regression" >&2; exit 1
else
  [ $? -eq 1 ] || { echo "bench_diff: wrong exit for regression" >&2; exit 1; }
fi
if ./build/tools/bench_diff "${NEW_TABLE04}" "${PERF_DIR}/mismatched.json" \
     >/dev/null; then
  echo "bench_diff FAILED to refuse a metadata mismatch" >&2; exit 1
else
  [ $? -eq 2 ] || { echo "bench_diff: wrong exit for mismatch" >&2; exit 1; }
fi
./build/tools/bench_diff --ignore-timings \
  "${BASELINE_TABLE04}" "${NEW_TABLE04}"
echo "bench_diff gate: self-diff clean, injected regression caught," \
     "meta mismatch refused, committed baseline holds"

# Kernel-layer baseline (DESIGN.md §13): a fresh bench_kernels run must
# match the committed BENCH_kernels.json on every non-timing field —
# the zero mismatch counts (scalar/SIMD and planned/eager bit-exactness)
# and the exact fusion/chunk/tape-shape counts that pin the plan
# compiler's decisions. Thread count is pinned so the report meta is
# machine-independent.
mkdir -p "${PERF_DIR}/kernels"
(cd "${PERF_DIR}/kernels" &&
 O2SR_BENCH_SCALE=small O2SR_THREADS=1 \
 "${OLDPWD}/build/bench/bench_kernels" >/dev/null)
./build/tools/bench_diff --ignore-timings \
  BENCH_kernels.json "${PERF_DIR}/kernels/BENCH_kernels.json"
python3 - "${PERF_DIR}/kernels/BENCH_kernels.json" <<'EOF'
import json, sys
vals = {v["label"]: v["value"]
        for v in json.load(open(sys.argv[1]))["values"]}
assert vals["kernel_mismatch_count"] == 0, vals
assert vals["planned_vs_eager_mismatch_count"] == 0, vals
assert vals["unnamed_region_count"] == 0, vals
assert vals["fused_linear_count"] > 0 and vals["fused_scatter_count"] > 0
print(f"kernels gate: bit-exact (0 mismatches), "
      f"{vals['fused_linear_count']:.0f} fused linear + "
      f"{vals['fused_scatter_count']:.0f} fused scatter dispatches hold")
EOF
rm -rf "${PERF_DIR}"

echo "=== Serving smoke: train once, serve from a second process ==="
# The offline-train / online-serve contract (DESIGN.md §9): a model trained
# and exported by one process must serve bit-identical rankings from a
# fresh process that never trained. serve_demo prints scores with %.17g,
# so a plain diff is an exact double comparison.
SERVE_DIR="$(mktemp -d)"
./build/examples/serve_demo train "${SERVE_DIR}/model.snap" \
  > "${SERVE_DIR}/trained.txt"
./build/examples/serve_demo serve "${SERVE_DIR}/model.snap" \
  > "${SERVE_DIR}/served.txt"
diff "${SERVE_DIR}/trained.txt" "${SERVE_DIR}/served.txt"
echo "serving smoke: cross-process rankings bit-identical"

# Serving throughput bench at small scale; the LRU cache must make the
# warm pass measurably faster than the cold pass, and the deadline pass
# must record its p99 + shed-rate next to the no-deadline numbers
# (DESIGN.md §10).
(cd "${SERVE_DIR}" &&
 O2SR_BENCH_SCALE=small "${OLDPWD}/build/bench/bench_serving" >/dev/null)
python3 - "${SERVE_DIR}" <<'EOF'
import json, sys, os
bench = json.load(open(os.path.join(sys.argv[1], "BENCH_serving.json")))
vals = {v["label"]: v["value"] for v in bench["values"]}
for key in ("qps_cold", "qps_warm", "p50_ms", "p95_ms", "p99_ms",
            "cache_hit_rate", "nodeadline_p99_ms", "nodeadline_shed_rate",
            "deadline_budget_ms", "deadline_p99_ms", "deadline_shed_rate",
            "deadline_degraded_rate",
            "mt_tenants", "mt_batch", "mt_total_queries", "mt_speedup_t4",
            "mt_queries_t1", "mt_qps_t1", "mt_p99_ms_t1",
            "mt_queries_t4", "mt_qps_t4", "mt_p99_ms_t4"):
    assert key in vals, f"BENCH_serving.json missing {key!r}"
assert vals["qps_warm"] > vals["qps_cold"], \
    f"warm QPS {vals['qps_warm']} not above cold {vals['qps_cold']}"
assert 0.0 < vals["cache_hit_rate"] <= 1.0, vals["cache_hit_rate"]
assert vals["nodeadline_shed_rate"] == 0.0, vals["nodeadline_shed_rate"]
assert 0.0 <= vals["deadline_shed_rate"] <= 1.0, vals["deadline_shed_rate"]
# The multi-tenant saturation curve (DESIGN.md §14): >= 4 tenants served,
# and the sharded front end must scale where 4 hardware threads exist —
# an oversubscribed box measures contention, not the engine.
assert vals["mt_tenants"] >= 4, vals["mt_tenants"]
if (os.cpu_count() or 1) >= 4:
    assert vals["mt_speedup_t4"] >= 2.5, \
        f"mt_speedup_t4 {vals['mt_speedup_t4']:.2f} below the 2.5 floor " \
        f"on a {os.cpu_count()}-cpu machine"
    scaling = f"mt speedup {vals['mt_speedup_t4']:.2f} >= 2.5"
else:
    scaling = f"mt speedup {vals['mt_speedup_t4']:.2f} (floor not " \
              f"asserted: {os.cpu_count()} cpu)"
print(f"serving bench smoke: cold {vals['qps_cold']:.0f} qps -> "
      f"warm {vals['qps_warm']:.0f} qps, "
      f"hit rate {vals['cache_hit_rate']:.3f}; "
      f"deadline p99 {vals['deadline_p99_ms']:.3f} ms, "
      f"shed rate {vals['deadline_shed_rate']:.3f}; "
      f"{vals['mt_tenants']:.0f} tenants, "
      f"{vals['mt_total_queries']:.0f} mt queries, {scaling}")
EOF

# bench_diff gate on the serving report: the fresh run must self-diff
# clean and refuse a thread-count mismatch, and the *committed* baseline
# (standard scale) must still record the saturation-curve acceptance —
# >= 1M queries across >= 4 tenants. The committed report cannot be
# diffed against the small-scale fresh run: the scale meta mismatch
# makes bench_diff refuse, which is exactly the safety the gate proves.
./build/tools/bench_diff "${SERVE_DIR}/BENCH_serving.json" \
  "${SERVE_DIR}/BENCH_serving.json" >/dev/null
python3 - "${SERVE_DIR}" <<'EOF'
import json, sys, os
report = json.load(open(os.path.join(sys.argv[1], "BENCH_serving.json")))
bad = json.loads(json.dumps(report))
bad["threads"] = 64
json.dump(bad, open(os.path.join(sys.argv[1], "mismatched.json"), "w"))
EOF
if ./build/tools/bench_diff "${SERVE_DIR}/BENCH_serving.json" \
     "${SERVE_DIR}/mismatched.json" >/dev/null; then
  echo "bench_diff FAILED to refuse a serving meta mismatch" >&2; exit 1
else
  [ $? -eq 2 ] || { echo "bench_diff: wrong exit for mismatch" >&2; exit 1; }
fi
python3 - BENCH_serving.json <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
vals = {v["label"]: v["value"] for v in bench["values"]}
assert bench["scale"] == "standard", bench["scale"]
assert vals["mt_tenants"] >= 4, vals["mt_tenants"]
assert vals["mt_total_queries"] >= 1_000_000, vals["mt_total_queries"]
print(f"serving baseline gate: committed standard-scale report holds "
      f"{vals['mt_total_queries']:.0f} queries over "
      f"{vals['mt_tenants']:.0f} tenants")
EOF

echo "=== Chaos smoke: serve_demo under an injected fault recipe ==="
# The resilience contract (DESIGN.md §10) end to end: snapshot-read bit
# flips, a 5 ms scorer stall and a 2% scorer error rate. The run must exit
# 0 with zero wrong-epoch / wrong-score responses, quarantine the corrupted
# snapshot while the original model keeps serving, promote a pristine one,
# and serve degraded tiers instead of failing.
O2SR_FAULTS="seed=7,snapshot.read=bitflip:0.01,score=delay:5ms,score=error:0.02" \
  ./build/examples/serve_demo chaos "${SERVE_DIR}/model.snap" \
  | tee "${SERVE_DIR}/chaos.txt"
grep -q "wrong_epoch=0 " "${SERVE_DIR}/chaos.txt"
grep -q "wrong_score=0 " "${SERVE_DIR}/chaos.txt"
grep -q "quarantined=1 " "${SERVE_DIR}/chaos.txt"
python3 - "${SERVE_DIR}/chaos.txt" <<'EOF'
import re, sys
summary = [l for l in open(sys.argv[1]) if l.startswith("chaos:")][-1]
fields = dict(kv.split("=") for kv in summary.split()[1:])
assert int(fields["stale"]) + int(fields["prior"]) > 0, \
    f"no degraded-tier responses under faults: {summary}"
assert int(fields["failed"]) == 0, summary
print(f"chaos smoke: {summary.strip()}")
EOF

echo "=== Tenants smoke: multi-threaded multi-tenant swap storm ==="
# The multi-tenant concurrency drill (DESIGN.md §14): four driver threads
# round-robin batched requests across four tenants while one tenant is
# hot-swapped six times. Exit 0 asserts zero failed responses, every swap
# promoted, bystander tenants untouched and per-shard counters summing to
# each tenant's registry counters; the greps pin the summary fields so a
# silently weakened drill cannot pass. The chaos recipe is latency-only (a
# scorer stall on every call): it widens every race window the drill races
# through without making the exact-count asserts nondeterministic the
# way error/bitflip recipes would.
O2SR_SERVE_BATCH=8 \
  O2SR_FAULTS="seed=11,score=delay:200us" \
  ./build/examples/serve_demo tenants "${SERVE_DIR}/model.snap" \
  | tee "${SERVE_DIR}/tenants.txt"
grep -q "tenants=4 " "${SERVE_DIR}/tenants.txt"
grep -q "failures=0 " "${SERVE_DIR}/tenants.txt"
grep -q "swaps_promoted=6 " "${SERVE_DIR}/tenants.txt"
grep -q "victim_epoch=7 " "${SERVE_DIR}/tenants.txt"
grep -q "bystanders_clean=1 " "${SERVE_DIR}/tenants.txt"
grep -q "shard_sums_ok=1 " "${SERVE_DIR}/tenants.txt"
rm -rf "${SERVE_DIR}"

echo "=== Continual smoke: crash-resumable pipeline under chaos ==="
# The continual-retraining contract (DESIGN.md §11) end to end: the
# supervised TRAIN->EXPORT->CANARY->SWAP->SERVE->DRIFT->RETRAIN loop must
# complete every refresh cycle with no manual intervention while journal,
# checkpoint and snapshot writes fail transiently and snapshot reads flip
# bits — the retry/backoff supervisor and the engine's fallback ladder ride
# it out. Exit status 0 is the assertion that all cycles completed.
PIPE_DIR="$(mktemp -d)"
O2SR_FAULTS="seed=7,journal.write=error:0.3,checkpoint.write=error:0.2,checkpoint.read=error:0.2,snapshot.read=bitflip:0.15,serialize.write=error:0.1,score=error:0.05" \
  ./build/examples/continual_demo "${PIPE_DIR}/state" \
  | tee "${PIPE_DIR}/continual.txt"
grep -q "^continual: cycles=3 " "${PIPE_DIR}/continual.txt"
grep -q "health=SERVING" "${PIPE_DIR}/continual.txt"
test -s "${PIPE_DIR}/state/pipeline_events.jsonl"
python3 - "${PIPE_DIR}/state/pipeline_events.jsonl" <<'EOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
kinds = {e["event"] for e in events}
assert "transition" in kinds, kinds
assert any(e["event"] == "serve" for e in events), kinds
print(f"continual smoke: {len(events)} events, kinds {sorted(kinds)}")
EOF
rm -rf "${PIPE_DIR}"

echo "=== Bench smoke: staleness cost under drift ==="
# bench_drift trains a stale epoch-0 model and a warm-started refresh per
# drift epoch; the refreshed model must not rank worse than the stale one
# (that gap is the pipeline's reason to exist), and BENCH_drift.json must
# carry the per-epoch series + refresh recovery times.
DRIFT_DIR="$(mktemp -d)"
(cd "${DRIFT_DIR}" &&
 O2SR_BENCH_SCALE=small "${OLDPWD}/build/bench/bench_drift" >/dev/null)
python3 - "${DRIFT_DIR}" <<'EOF'
import json, sys, os
bench = json.load(open(os.path.join(sys.argv[1], "BENCH_drift.json")))
vals = {v["label"]: v["value"] for v in bench["values"]}
for key in ("stale_mean_ndcg3", "refreshed_mean_ndcg3",
            "staleness_gap_ndcg3", "epoch1_stale_ndcg3",
            "epoch1_refreshed_ndcg3", "epoch1_recovery_s"):
    assert key in vals, f"BENCH_drift.json missing {key!r}"
assert vals["refreshed_mean_ndcg3"] >= vals["stale_mean_ndcg3"], (
    f"refreshed NDCG@3 {vals['refreshed_mean_ndcg3']} worse than stale "
    f"{vals['stale_mean_ndcg3']}")
assert vals["epoch1_recovery_s"] > 0.0, vals["epoch1_recovery_s"]
assert bench["cells"], "bench emitted no per-epoch eval cells"
print(f"drift bench smoke: stale {vals['stale_mean_ndcg3']:.4f} -> "
      f"refreshed {vals['refreshed_mean_ndcg3']:.4f} "
      f"(gap {vals['staleness_gap_ndcg3']:+.4f})")
EOF
rm -rf "${DRIFT_DIR}"

echo "=== Scale smoke: out-of-core ingest, kill-resume, chaos, corruption ==="
# The out-of-core dataset contract (DESIGN.md §15) end to end. One clean
# ingest/read pair establishes the reference aggregate fingerprint; every
# abuse below — ingestion restarted at every journal boundary, shard and
# manifest writes torn by an injected fault recipe, a raw on-disk byte
# flip — must converge to the byte-identical fingerprint, because corrupt
# shards are detected by checksum, quarantined, and regenerated from the
# seeded simulator under the journal's verification.
SCALE_DIR="$(mktemp -d)"
./build/examples/scale_demo ingest "${SCALE_DIR}/clean" >/dev/null
./build/examples/scale_demo read "${SCALE_DIR}/clean" \
  | tee "${SCALE_DIR}/clean.txt"
REF_FNV="$(grep -o 'agg_fnv=[0-9a-f]*' "${SCALE_DIR}/clean.txt")"
grep -q "quarantined=0 " "${SCALE_DIR}/clean.txt"

# Kill/restart drill: cap each ingestion run at one shard so every journal
# boundary doubles as a crash site; each restart must resume where the
# manifest left off and the final dataset must read back bit-identical to
# the uninterrupted one.
RUNS=0
while :; do
  ./build/examples/scale_demo ingest "${SCALE_DIR}/killed" 1 \
    > "${SCALE_DIR}/killed_run.txt"
  grep -q "stopped_early=1" "${SCALE_DIR}/killed_run.txt" || break
  RUNS=$((RUNS + 1))
  [ "${RUNS}" -le 128 ] || { echo "kill-resume did not converge" >&2; exit 1; }
done
./build/examples/scale_demo read "${SCALE_DIR}/killed" \
  | tee "${SCALE_DIR}/killed.txt"
grep -qF "${REF_FNV}" "${SCALE_DIR}/killed.txt"
grep -q "quarantined=0 " "${SCALE_DIR}/killed.txt"

# Chaos ingest: a quarter of shard writes land torn on disk, a fifth of
# journal updates die outright, killing the run mid-dataset, and a tenth
# of journal frames land torn, so the next open quarantines the journal
# and rebuilds it from the shards; the loop below restarts the run (fresh
# fault seed each attempt) until it exits 0. The reader must then detect
# every torn shard and journal, quarantine them and regenerate identical
# rows — same fingerprint, nothing skipped.
ATTEMPTS=0
until O2SR_FAULTS="seed=${ATTEMPTS},dataset.write=trunc:0.25,dataset.manifest=error:0.2,dataset.manifest=trunc:0.1" \
        ./build/examples/scale_demo ingest "${SCALE_DIR}/chaos" \
        > "${SCALE_DIR}/chaos_ingest.txt" 2>/dev/null; do
  ATTEMPTS=$((ATTEMPTS + 1))
  [ "${ATTEMPTS}" -le 64 ] || { echo "chaos ingest did not converge" >&2; exit 1; }
done
./build/examples/scale_demo read "${SCALE_DIR}/chaos" \
  | tee "${SCALE_DIR}/chaos.txt"
grep -qF "${REF_FNV}" "${SCALE_DIR}/chaos.txt"
grep -q "skipped=0 " "${SCALE_DIR}/chaos.txt"

# Raw on-disk corruption: flip one byte mid-payload in a shard of the
# clean dataset. The three-checksum format catches it, the reader
# quarantines the file (with a .reason record) and regenerates it; the
# fingerprint must not move.
python3 - "${SCALE_DIR}/clean" <<'EOF'
import glob, os, sys
shard = sorted(glob.glob(os.path.join(sys.argv[1], "shard-*.o2sp")))[3]
with open(shard, "r+b") as f:
    f.seek(os.path.getsize(shard) // 2)
    byte = f.read(1)
    f.seek(-1, 1)
    f.write(bytes([byte[0] ^ 0x40]))
print(f"corrupted one byte of {os.path.basename(shard)}")
EOF
./build/examples/scale_demo read "${SCALE_DIR}/clean" \
  | tee "${SCALE_DIR}/corrupt.txt"
grep -qF "${REF_FNV}" "${SCALE_DIR}/corrupt.txt"
grep -q "quarantined=1 regenerated=1 skipped=0 " "${SCALE_DIR}/corrupt.txt"
test -d "${SCALE_DIR}/clean/.quarantine"
echo "scale smoke: ${RUNS} mid-ingest restarts + chaos recipe" \
     "(${ATTEMPTS} crash-restarts) + byte flip all converge to ${REF_FNV}"

echo "=== bench_scale gate: committed small baseline + paper-scale floor ==="
# A fresh small-scale bench_scale run must match the committed baseline on
# every non-timing field: exact workload shape (stores/orders/shards/
# blocks — drift means the runs ingested different datasets) and peak RSS
# (direction-aware; growth is a regression bench_diff flags even under
# --ignore-timings). Env is pinned so the report meta is
# machine-independent.
mkdir -p "${SCALE_DIR}/bench"
(cd "${SCALE_DIR}/bench" &&
 O2SR_BENCH_SCALE=small O2SR_THREADS=1 O2SR_MEM_BUDGET_MB=2048 \
 O2SR_DATA_DIR=data \
 "${OLDPWD}/build/bench/bench_scale" >/dev/null)
./build/tools/bench_diff --ignore-timings \
  BENCH_scale.small.json "${SCALE_DIR}/bench/BENCH_scale.json"
# The committed paper-scale artifact must hold the §IV-A1 acceptance
# floor: the paper's store count, >= 23M streamed orders, and a peak RSS
# that stayed under the memory budget it declared.
python3 - BENCH_scale.json <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
vals = {v["label"]: v["value"] for v in bench["values"]}
assert bench["bench"] == "scale" and bench["scale"] == "paper", (
    bench["bench"], bench["scale"])
assert vals["stores"] >= 39465, vals["stores"]
assert vals["orders"] >= 23_000_000, vals["orders"]
assert vals["peak_rss_mb"] <= vals["mem_budget_mb"], (
    vals["peak_rss_mb"], vals["mem_budget_mb"])
assert vals["quarantined"] == 0, vals["quarantined"]
print(f"paper-scale gate: {vals['stores']:.0f} stores, "
      f"{vals['orders']:.0f} orders across {vals['shards']:.0f} shards, "
      f"peak RSS {vals['peak_rss_mb']:.0f} MiB within "
      f"{vals['mem_budget_mb']:.0f} MiB budget")
EOF
rm -rf "${SCALE_DIR}"

echo "=== ASan build + pipeline/fault/serving/shard-parser/kernel tests ==="
# The crash-resume and fault-injection paths shuffle buffers, snapshots and
# journals across retries; ASan keeps that churn honest. spill_test and
# stream_test drive the on-disk shard and manifest parsers with corrupted,
# truncated and foreign bytes. plan_exec_test drives the hand-tiled AVX2
# matmul kernels over chunked row ranges, where a masked tail or block
# load/store running past its rows would hide.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DO2SR_SANITIZE=address >/dev/null
cmake --build build-asan -j "${JOBS}" \
      --target pipeline_test retry_test drift_test fault_injection_test \
               serving_resilience_test serve_test checkpoint_test \
               spill_test stream_test plan_exec_test
(cd build-asan &&
 ./tests/pipeline_test &&
 ./tests/retry_test &&
 ./tests/drift_test &&
 ./tests/fault_injection_test &&
 ./tests/serving_resilience_test &&
 ./tests/serve_test &&
 ./tests/checkpoint_test &&
 ./tests/spill_test &&
 ./tests/stream_test &&
 ./tests/plan_exec_test)

echo "=== TSAN build + exec/plan/stream/trainer/serving tests ==="
# plan_exec_test and golden_test run the planned executor, whose Sessions
# carry nearly every region a training step dispatches.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DO2SR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${JOBS}" \
      --target exec_test plan_exec_test golden_test \
               stream_test parallel_determinism_test \
               fault_tolerance_test optimizer_test score_cache_stress_test \
               serving_resilience_test fault_injection_test \
               serve_batch_test serve_concurrent_test tenant_test
(cd build-tsan &&
 O2SR_THREADS=4 ./tests/exec_test &&
 O2SR_THREADS=4 ./tests/plan_exec_test &&
 O2SR_THREADS=4 ./tests/golden_test &&
 O2SR_THREADS=4 ./tests/stream_test &&
 O2SR_THREADS=4 ./tests/parallel_determinism_test &&
 O2SR_THREADS=4 ./tests/fault_tolerance_test &&
 O2SR_THREADS=4 ./tests/optimizer_test &&
 O2SR_THREADS=4 ./tests/score_cache_stress_test &&
 O2SR_THREADS=4 ./tests/serving_resilience_test &&
 O2SR_THREADS=4 ./tests/fault_injection_test &&
 O2SR_THREADS=4 ./tests/serve_batch_test &&
 O2SR_THREADS=4 ./tests/serve_concurrent_test &&
 O2SR_THREADS=4 ./tests/tenant_test)

echo "=== UBSan build + tests ==="
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DO2SR_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "${JOBS}"
ctest --test-dir build-ubsan --output-on-failure -j "${JOBS}"

echo "ci.sh: all green"
