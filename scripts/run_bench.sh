#!/usr/bin/env bash
# Build and run the JSON-emitting benchmarks, writing results to the
# repo root so the perf trajectory is tracked in-tree:
#
#  - BENCH_parallel_ops.json: thread-scaling of the parallel engine
#  - BENCH_isa_tiers.json: the fixed kernel plan of each ISA tier
#    (scalar baseline, pinned vector tiers, auto) across the
#    GEMM/SLS/crossover/eval suites; kernel rows on one thread, each
#    the median of 5 repeats; stamps detected ISA and host steal
#  - BENCH_failover.json: availability + p99 vs replica count under
#    injected shard failures (MTBF = 10x MTTR)
#  - BENCH_brownout.json: goodput + served p99 under 1.5x overload
#    with deadline budgets and the brownout ladder on/off
#  - BENCH_sdc.json: corruption detection rate, escapes and p99 tax
#    across the (corruption rate x scrub interval x inline sampling)
#    defense grid
#  - BENCH_backend.json: near-memory SLS backend vs host CPU latency
#    across RMC1/2/3 x pooling depth x PIM rank count (virtual time;
#    the --quick grid, the one CI regenerates and diffs)
#  - BENCH_tail_attribution.json: p99-p50 blame decomposition derived
#    from the per-request causal log across overload / straggler /
#    hedged scenarios (virtual time; bit-deterministic)
#
# All files share the bench::JsonWriter envelope (bench_common.hh):
#   {schema_version, bench, machine, config, results[]}
#
# Usage: scripts/run_bench.sh [--threads 1,2,4,8] [--min-time 0.25]
# Extra arguments are forwarded to micro_parallel_ops only.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build --target micro_parallel_ops micro_isa_tiers \
    study_failover study_brownout study_sdc study_backend \
    fig11_tail_latency

./build/bench/micro_parallel_ops --out BENCH_parallel_ops.json "$@"
echo "wrote $(pwd)/BENCH_parallel_ops.json"

./build/bench/micro_isa_tiers --out BENCH_isa_tiers.json
echo "wrote $(pwd)/BENCH_isa_tiers.json"

./build/bench/study_failover --out BENCH_failover.json
echo "wrote $(pwd)/BENCH_failover.json"

./build/bench/study_brownout --out BENCH_brownout.json
echo "wrote $(pwd)/BENCH_brownout.json"

./build/bench/study_sdc --out BENCH_sdc.json
echo "wrote $(pwd)/BENCH_sdc.json"

# --quick (iters 10, warmup 3) is the committed envelope and the CI gate.
./build/bench/study_backend --quick --out BENCH_backend.json
echo "wrote $(pwd)/BENCH_backend.json"

./build/bench/fig11_tail_latency --out BENCH_tail_attribution.json
echo "wrote $(pwd)/BENCH_tail_attribution.json"
