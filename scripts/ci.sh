#!/usr/bin/env sh
# Tier-1 CI gate: everything a change must pass before merging.
#
#   0. Four lints over src/. Modeled time: outside src/rdma/ and
#      src/common/timing.hpp no code line names the injection mode,
#      time_scale or the spin waits; every other layer charges and waits
#      for modeled time through Nic::charge_model_ns / Nic::wait_model_time.
#      Waiting: outside src/rdma/ and src/common/ no code line calls
#      yield_check, check_abort or std::this_thread::yield (the test-facing
#      RankCtx::yield_check excepted); every blocking wait goes through
#      rdma::Domain::wait_until or its back-off step, Domain::backoff_step.
#      The rank's clock: outside src/rdma/, src/common/timing.hpp and
#      src/trace/ no code line calls now_ns() (the fabric's hang watchdog
#      and P2P::model_now excepted); a deadline test asks the NIC
#      (Nic::passed, Nic::last_now), an anchor reads it fresh (Nic::now).
#      The cost model has one owner: no code line under src/simtime holds
#      a Gemini constant (416 ns, 2.4 us, 45 ns, 1100 ns, 0.145 or 0.16
#      ns/B) as a literal; the closed forms read rdma::kGemini
#   1. Release build with warnings as errors + full ctest suite (the tier-1
#      gate from ROADMAP.md), then the repo benchmark's own ctest
#      (quantile_test + fompi_bench --smoke with its fleet correctness
#      checks)
#   2. Seeded chaos gate: the fault-injection suite (hashtable + DSDE +
#      KV-service workloads under a survivable fault plan, seeds 11/22/33
#      baked into tests/test_fault.cpp and tests/test_kv.cpp) repeated to
#      confirm the counters are a pure function of the seed, the
#      suspended-fiber-fleet kill (FaultChaos: 32 parked fibers must all
#      unwind typed, whichever were parked when the peer died), plus the
#      recovery-chaos suite (staggered double kills + heal-until-settled
#      under the same seeds) repeated to confirm the self-healing
#      invariants hold across thread schedules
#   3. ThreadSanitizer build + the concurrency-heavy tests (window
#      creation in all four flavors, dynamic-window attach/detach and its
#      descriptor caches, fence and PSCW, the MCS queue lock, datatype
#      flatten-cache sharing, RDMA issue paths, locks, comm, accumulate,
#      flight-recorder tracing, doorbell batching, fault
#      injection/recovery incl. Delivery::deferred under a fault plan,
#      the suspended-fiber-fleet chaos kill, and the kills-vector
#      staggered double-death path, RMA-native collectives incl. the
#      one-rank-per-node, single-node and two-tier trees and persistent
#      plans, the fiber progress engine +
#      notify plane, and the KV service's seqlock reads under a
#      concurrent writer plus its kill/failover path and the full
#      self-healing recovery/scrub/reconfiguration suite)
#   4. AddressSanitizer build + window creation and teardown (the mapped
#      symmetric heap, control blocks, registrations), the suites that
#      move bytes through the NIC's staging buffers and fragment lists
#      (contiguous, vectored and datatype issue, comm, property-based RMA,
#      accumulate), the KV service, whose one-round routing read lands
#      an rget in a table the caller owns, and the collectives, which copy
#      between landing regions and caller buffers at computed
#      displacements (the NIC range-checks puts, not these host copies):
#      zero AddressSanitizer reports
#   5. Benchmark smoke run (bench_fastpath + bench_datatype +
#      bench_throughput + bench_collectives + bench_overlap + bench_kv JSON
#      emission and two figure benches; the throughput bench self-gates
#      >=2x batched speedup under explicit scopes, the collectives bench
#      self-gates log-p DES shapes, the overlap bench self-gates >=4x
#      64-fiber AMO pipelining, the kv bench self-gates cache leverage
#      (exact per-get AMO/get counters plus a timing floor derived from
#      the sim_kv closed form), the failover SLO with typed peer_dead and
#      the same counter and timing-floor checks on healthy against
#      degraded reads, and a full healing pass — promotion +
#      re-replication with post-recovery p99 within 1.5x of healthy, the
#      same leverage checks, and hinted puts after the heal at exact
#      counters (the generation read inside the first round) under a
#      timing ceiling from the sim_kv closed forms — exiting non-zero on
#      violation)
#   6. Trace-artifact gate: the Perfetto timeline bench_fig6b_fence emitted
#      must be valid JSON and must have dropped zero events
#   7. Idle-tax gates, one parametrised check over BENCH_fastpath.json: an
#      armed-but-idle fault plan or fiber scheduler must not tax the
#      blocking put8 issue path, and the fault plan must not fire a fault
#      in its timed loop
#
# Runs from any directory; everything lands in build/, build-tsan/ and
# build-asan/.
set -eu

cd "$(dirname "$0")/.."

# Modeled time has one owner, the NIC (DESIGN.md §2): a layer above it that
# reads Injection:: or time_scale, or spins, re-implements the charge rule.
# Comment lines are exempt.
if grep -rnE 'Injection::|time_scale|spin_for_ns|spin_until_ns' src \
    --include='*.cpp' --include='*.hpp' |
  grep -vE '^src/rdma/|^src/common/timing\.hpp:' |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "modeled time charged or waited for outside rdma::Nic (lines above)" >&2
  exit 1
fi

# Waiting has one owner, rdma::Domain (DESIGN.md §8): a wait that yields or
# checks for a fleet abort by hand can skip the progress hook or the
# dead-peer re-check. RankCtx::yield_check, which test and bench loops
# call, is the one exemption. Comment lines are exempt.
if grep -rnE '(yield_check_?|check_abort)[[:space:]]*\(|std::this_thread::yield' \
    src --include='*.cpp' --include='*.hpp' |
  grep -vE '^src/rdma/|^src/common/' |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -vE '^src/fabric/fabric\.hpp:[0-9]+:  void yield_check\(\) const \{'; then
  echo "a wait bypasses rdma::Domain::wait_until/backoff_step (lines above)" >&2
  exit 1
fi

# The rank's clock has one owner, its rdma::Nic (DESIGN.md §8): it keeps
# the latest reading, so a layer that reads the clock itself re-reads time
# the NIC already holds. The fabric's hang watchdog (wall time, not the
# rank's) and P2P::model_now, p2p's one clock seam, are the exemptions.
# Comment lines are exempt.
if grep -rnE '\bnow_ns\(\)' src --include='*.cpp' --include='*.hpp' |
  grep -vE '^src/rdma/|^src/common/timing\.hpp:|^src/trace/' |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
  grep -vE '^src/fabric/fabric\.cpp:[0-9]+:.*watchdog_deadline_ns_' |
  grep -vE '^src/fabric/p2p\.cpp:[0-9]+:std::uint64_t P2P::model_now\(\) '; then
  echo "the rank's clock read outside its owner, rdma::Nic (lines above)" >&2
  exit 1
fi

# The cost model has one owner, rdma::NetworkModel (DESIGN.md §2): a closed
# form in src/simtime that types a Gemini constant instead of reading
# rdma::kGemini drifts from what the NIC charges once either changes. The
# DES's own calibrations (congestion, flop rates, MPI-1 service, noise)
# are not Gemini constants. Comment lines are exempt.
if grep -rnE '(^|[^0-9.])(416(\.0)?|0\.416|2\.4|2400(\.0)?|0\.045|45(\.0)?|1100(\.0)?|0\.145|0\.16)([^0-9]|$)' \
    src/simtime |
  grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
  echo "a Gemini constant typed in src/simtime (lines above)" >&2
  exit 1
fi

cmake -B build -G Ninja -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build build
ctest --test-dir build --output-on-failure

# Repo benchmark smoke (< 10 s): benchmark/ is its own CMake project over
# ../src; its ctest runs quantile_test and `fompi_bench --smoke`, whose
# fleet rounds fail on a broken retirement identity or an illegal final
# read of any key.
cmake -S benchmark -B build-benchmark -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-benchmark
ctest --test-dir build-benchmark --output-on-failure

# Chaos determinism: each Chaos test runs its workload twice per seed and
# asserts identical injected/retried/failed counters; repeating the whole
# suite catches any schedule-order dependence the single run misses. In
# FaultChaos, which of its 32 fibers are parked, on a deadline or on a
# ready-poll, when rank 1 dies depends on the thread schedule. The
# KvChaos suite also holds the writer-death sweep (the writer killed at
# every op index of one replicated put; survivors must never hang), whose
# lock revocations race the survivors' reads differently on every run. The
# KvScrub suite races the anti-entropy scrub against a live writer, the
# KvFleet suite's interleavings depend on how reads and priority writes
# share each rank's thread, the KvSeqlock suite's modeled input only
# sometimes lands a write inside one read's snapshot window, so a broken
# version bracket can slip through a single run, and the KvRecovery
# suite's routing refetches and stale clients race a coordinator.
./build/tests/test_fault --gtest_filter='Chaos.*:FaultChaos.*' \
  --gtest_repeat=3 --gtest_brief=1
./build/tests/test_kv \
  --gtest_filter='KvChaos.*:KvScrub.*:KvFleet.*:KvSeqlock.*:KvRecovery.*' \
  --gtest_repeat=3 --gtest_brief=1

# Recovery chaos: staggered double kills under seeds 11/22/33 with a
# closed-loop fleet running throughout; every run must settle (replica
# promotion + re-replication or typed data_loss) with the op-retirement
# identity intact. Repeated because the kill/heal interleaving is
# thread-schedule dependent — the invariants must hold under all of them.
./build/tests/test_kv --gtest_filter='KvRecoveryChaos.*' --gtest_repeat=3 \
  --gtest_brief=1

cmake -B build-tsan -G Ninja -DFOMPI_SANITIZE=thread
cmake --build build-tsan --target \
  test_window test_dynamic test_sync_active test_mcs \
  test_rdma test_lock test_datatype test_comm test_accumulate test_trace \
  test_batch test_fault test_collectives test_progress test_kv
./build-tsan/tests/test_window
./build-tsan/tests/test_dynamic
./build-tsan/tests/test_sync_active
./build-tsan/tests/test_mcs
./build-tsan/tests/test_rdma
./build-tsan/tests/test_lock
./build-tsan/tests/test_datatype
./build-tsan/tests/test_comm
./build-tsan/tests/test_accumulate
./build-tsan/tests/test_trace
./build-tsan/tests/test_batch
./build-tsan/tests/test_fault
./build-tsan/tests/test_collectives
./build-tsan/tests/test_progress
./build-tsan/tests/test_kv

# AddressSanitizer aborts the binary on its first report, so a clean exit
# means zero reports. Window memory is mapped, not malloc'd, so it carries
# no heap redzones; RMA into it stays range-checked by the NIC. test_alloc
# replaces operator new and stays out of both sanitizer builds.
cmake -B build-asan -G Ninja -DFOMPI_SANITIZE=address
cmake --build build-asan --target \
  test_window test_rdma test_batch test_datatype test_comm test_prop_rma \
  test_accumulate test_kv test_collectives
./build-asan/tests/test_window
./build-asan/tests/test_rdma
./build-asan/tests/test_batch
./build-asan/tests/test_datatype
./build-asan/tests/test_comm
./build-asan/tests/test_prop_rma
./build-asan/tests/test_accumulate
./build-asan/tests/test_kv
./build-asan/tests/test_collectives

scripts/bench_smoke.sh

# The smoke run must have produced a loadable Perfetto timeline with a ring
# large enough for the run: structural validity via json.tool, zero drops
# via the exporter's otherData.dropped field.
python3 -m json.tool BENCH_fig6b_fence.trace.json > /dev/null
python3 - <<'EOF'
import json, sys
dropped = json.load(open("BENCH_fig6b_fence.trace.json"))["otherData"]["dropped"]
if dropped > 0:
    sys.exit(f"BENCH_fig6b_fence.trace.json: {dropped} events dropped "
             "(flight-recorder ring too small for the smoke run)")
EOF

# Idle-tax gates. An armed-but-idle feature must leave the blocking put8
# issue path within BOUND x the plain baseline, and its timed loop must
# bump none of the listed counters. Both samples are ~17-19 ns on a
# one-core host and single runs can be scheduler-noise outliers of 3x or
# more, so a gate with ATTEMPTS > 1 regenerates BENCH_fastpath.json and
# re-checks before failing.
#   idle_tax_gate CASE BOUND ATTEMPTS [COUNTER...]
idle_tax_gate() {
  case_name=$1 bound=$2 attempts=$3
  shift 3
  attempt=1
  until python3 - "$case_name" "$bound" "$@" <<'EOF'
import json, sys
name, bound, counters = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
cases = {c["name"]: c for c in json.load(open("BENCH_fastpath.json"))["cases"]}
base = cases["put8_blocking_immediate"]["ns_per_op"]
idle = cases[name]
for counter in counters:
    if idle.get(counter, 0) != 0:
        sys.exit(f"{name}: {counter}={idle[counter]} in the timed loop")
if idle["ns_per_op"] > bound * base:
    sys.exit(f"{name} {idle['ns_per_op']:.1f} ns/op vs baseline "
             f"{base:.1f} ns/op: over the {bound}x idle-tax bound")
EOF
  do
    if [ "$attempt" -ge "$attempts" ]; then
      echo "$case_name idle-tax gate failed on $attempt attempt(s)" >&2
      exit 1
    fi
    attempt=$((attempt + 1))
    echo "$case_name idle-tax gate: rerunning bench_fastpath" \
      "(attempt $attempt)" >&2
    ./build/bench/bench_fastpath > BENCH_fastpath.json
  done
}

# Fault plan armed with every scheduled site inside the warmup: no fault
# may fire in the timed loop. Generous bound, no rerun.
idle_tax_gate put8_blocking_fault_armed_idle 1.5 1 \
  fault_injected op_retried op_failed
# A constructed-but-idle fiber scheduler (no fibers adopted).
idle_tax_gate put8_blocking_sched_idle 1.25 3

echo "ci OK"
