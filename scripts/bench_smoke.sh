#!/usr/bin/env sh
# Smoke-check the benchmark pipeline.
#
#   scripts/bench_smoke.sh          build Release, run bench_fastpath,
#                                   bench_datatype, bench_throughput,
#                                   bench_collectives, bench_overlap,
#                                   bench_kv and two figure benches; the
#                                   JSON outputs land in
#                                   BENCH_fastpath.json / BENCH_datatype.json /
#                                   BENCH_throughput.json /
#                                   BENCH_collectives.json /
#                                   BENCH_overlap.json / BENCH_kv.json
#                                   at the repo root, bench_fig6b_fence emits
#                                   a Perfetto timeline
#                                   (BENCH_fig6b_fence.trace.json), and
#                                   scripts/bench_summary.py aggregates
#                                   everything into BENCH_summary.json
#
# The ThreadSanitizer build and its test list live in scripts/ci.sh.
#
# bench_fastpath measures software-only issue overhead (Injection::none);
# its numbers are NOT comparable to the figure benches, which run under the
# injected Gemini cost model (see CLAUDE.md).
set -eu

cd "$(dirname "$0")/.."

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build

./build/bench/bench_fastpath | tee BENCH_fastpath.json
./build/bench/bench_datatype | tee BENCH_datatype.json
./build/bench/bench_throughput | tee BENCH_throughput.json
./build/bench/bench_collectives | tee BENCH_collectives.json
./build/bench/bench_overlap | tee BENCH_overlap.json
./build/bench/bench_kv | tee BENCH_kv.json
./build/bench/bench_fig4_latency
./build/bench/bench_fig6b_fence

python3 scripts/bench_summary.py .

echo "bench smoke OK"
