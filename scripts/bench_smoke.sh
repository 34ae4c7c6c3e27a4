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

# Runs bench $1 into $2, then prints the file. The bench's own exit status
# decides (its self-gates exit 1): a pipe into tee would report tee's, and
# POSIX sh has no pipefail.
bench_json() {
  status=0
  "./build/bench/$1" > "$2" || status=$?
  cat "$2"
  if [ "$status" -ne 0 ]; then
    echo "$1 failed (exit $status)" >&2
    exit "$status"
  fi
}

bench_json bench_fastpath BENCH_fastpath.json
bench_json bench_datatype BENCH_datatype.json
bench_json bench_throughput BENCH_throughput.json
bench_json bench_collectives BENCH_collectives.json
bench_json bench_overlap BENCH_overlap.json
bench_json bench_kv BENCH_kv.json
./build/bench/bench_fig4_latency
./build/bench/bench_fig6b_fence

python3 scripts/bench_summary.py .

echo "bench smoke OK"
