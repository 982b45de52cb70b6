#!/usr/bin/env bash
# Kernel/perf trajectory: run the micro-kernel benchmarks and refresh
# BENCH_kernels.json at the repo root.  The JSON keeps the before/after
# pairs the perf story is tracked by (docs/performance.md):
#   BM_MatMulFloatNaive   vs BM_MatMulFloat        (blocked GEMM)
#   BM_CovProductFull     vs BM_CovProductSyrk     (symmetric covariance)
#   BM_FilterStepNaiveAlloc vs BM_FilterStepWorkspace (allocation-free step)
#
# Then the serving trajectory: bench_ext_multi_session refreshes
# BENCH_serve.json with the batched-vs-solo sessions/s ratio for a
# same-config fleet (docs/serving.md) and this script floors it at 2x,
# requiring bit-identical trajectories in both modes; it also holds warm
# (shared-model), cold (per-user, 150-bin-old) and skewed (shared-model,
# ages 150..30 bins) drain migration to a 5 ms/session ceiling and to
# bit-identity with sequential decoding.
#
# Usage: scripts/bench_perf.sh [quick|full]
#   quick  — short repetitions, for CI smoke (default min_time)
#   full   — longer min_time for stable numbers worth checking in
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-full}"
case "$mode" in
  quick) min_time=0.02 ;;
  full) min_time=0.15 ;;
  *)
    echo "usage: scripts/bench_perf.sh [quick|full]" >&2
    exit 2
    ;;
esac

cmake -B build -S .

# Refuse debug baselines outright: numbers from an unoptimized build are
# not comparable to the checked-in JSON and must never overwrite it.  The
# binary stamps kalmmind_build_type into its JSON context as a second gate
# (the library_build_type key only reflects how libbenchmark was built).
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build/CMakeCache.txt)"
case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "bench_perf: refusing CMAKE_BUILD_TYPE='$build_type' build;" \
         "reconfigure with -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
    ;;
esac

cmake --build build -j"$(nproc)" --target bench_micro_kernels

./build/bench/bench_micro_kernels \
  --benchmark_min_time="$min_time" \
  --benchmark_out=BENCH_kernels.json \
  --benchmark_out_format=json

echo
echo "== bench_perf: SYRK vs full covariance product (z = 164) =="
python3 - <<'EOF'
import json

with open("BENCH_kernels.json") as f:
    data = json.load(f)
times = {b["name"]: b["real_time"] for b in data["benchmarks"]}
full = times.get("BM_CovProductFull/164")
syrk = times.get("BM_CovProductSyrk/164")
if full is None or syrk is None:
    raise SystemExit("bench_perf: covariance benchmarks missing from JSON")
speedup = full / syrk
print(f"full  {full:10.0f} ns")
print(f"syrk  {syrk:10.0f} ns")
print(f"speedup {speedup:.2f}x (floor: 1.5x)")
if speedup < 1.5:
    raise SystemExit("bench_perf: SYRK speedup below the 1.5x floor")
EOF

echo
echo "== bench_perf: SIMD dispatch tiers (docs/performance.md) =="
python3 - <<'EOF'
import json

with open("BENCH_kernels.json") as f:
    data = json.load(f)
if data["context"].get("kalmmind_build_type") != "release":
    raise SystemExit(
        "bench_perf: BENCH_kernels.json came from a non-release binary "
        "(kalmmind_build_type != release); refusing the baseline")
times = {b["name"]: b["real_time"] for b in data["benchmarks"]}

# The vector tiers vs the PR4 blocked-scalar baseline, on the two series
# the serving path cares about: the z=164 innovation-covariance SYRK and
# the batched x=6 panel GEMM.  Floors only bind for tiers the host runs.
floors = [
    ("syrk z=164", "BM_CovProductSyrkTier/{}/164"),
    ("batched x=6 gemm m=64", "BM_BatchedGemmX6Tier/{}/64"),
]
for label, pattern in floors:
    scalar = times.get(pattern.format("scalar"))
    if scalar is None:
        raise SystemExit(f"bench_perf: scalar tier series missing ({label})")
    for tier in ("avx2", "avx512", "neon"):
        t = times.get(pattern.format(tier))
        if t is None:
            continue
        speedup = scalar / t
        print(f"{label:24s} {tier:7s} {speedup:5.2f}x vs scalar (floor: 1.3x)")
        if speedup < 1.3:
            raise SystemExit(
                f"bench_perf: {tier} {label} below the 1.3x floor vs scalar")
EOF

cmake --build build -j"$(nproc)" --target bench_ext_multi_session

echo
echo "== bench_perf: batched vs solo serving (same-config fleet) =="
./build/bench/bench_ext_multi_session > /dev/null

python3 - <<'EOF'
import json

with open("BENCH_serve.json") as f:
    data = json.load(f)
speedup = data["batched_speedup"]
print(f"solo    {data['solo_steps_per_s']:12.0f} steps/s")
print(f"batched {data['batched_steps_per_s']:12.0f} steps/s")
print(f"speedup {speedup:.2f}x (floor: 2.0x)")
if not data["identical"]:
    raise SystemExit("bench_perf: batched trajectories diverged from solo")
if speedup < 2.0:
    raise SystemExit("bench_perf: batched speedup below the 2.0x floor")
EOF

echo
echo "== bench_perf: snapshot migration (motor x=6, z=164) =="
python3 - <<'EOF'
import json

with open("BENCH_serve.json") as f:
    data = json.load(f)
# warm: one shared model, the target shard's schedule cache already holds
# it.  cold: a model per user and sessions >= 150 bins old, so the target
# has never seen the schedule and must resume from the snapshot's
# recursion state — the series that catches a restore replaying history.
# skewed: one shared model, session ages 150..30 bins, so a drained session
# can land ahead of its target shard's schedule.
for key, label in (("migration", "warm"), ("migration_cold", "cold"),
                   ("migration_skewed", "skewed")):
    mig = data.get(key)
    if mig is None:
        raise SystemExit(f"bench_perf: {label} migration series missing from JSON")
    print(f"{label} checkpoint {mig['snapshot_ms_per_session']:8.3f} ms/session")
    print(f"{label} migration  {mig['migrate_ms_per_session']:8.3f} ms/session "
          "(floor: 5 ms, snapshot + restore + requeue)")
    print(f"{label} after drain: first bin {mig['first_bin_ms']:.3f} ms, then "
          f"{mig['post_drain_steps_per_s']:.0f} steps/s, "
          f"{mig['batched_step_share']:.3f} batched")
    if not mig["identical"]:
        raise SystemExit(
            f"bench_perf: {label} migrated trajectories diverged from sequential")
    if mig["migrated"] == 0:
        raise SystemExit(f"bench_perf: no {label} sessions were migrated")
    if label == "cold" and mig["age_bins"] < 150:
        raise SystemExit("bench_perf: cold migration sessions younger than 150 bins")
    if mig["migrate_ms_per_session"] > 5.0:
        raise SystemExit(
            f"bench_perf: {label} migration above the 5 ms/session ceiling")
EOF

echo "bench_perf: OK (BENCH_kernels.json + BENCH_serve.json refreshed)"
