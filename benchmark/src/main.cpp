// fompi_bench: the repository benchmark (see benchmark/README.md).
//
//   fompi_bench [--workload NAME|all] [--seed N] [--seconds S]
//               [--trace 0|1|PATH] [--out run.json] [--smoke]
//
// Untraced (default): each workload runs 5 rounds on fresh fleets, round r
// with seed N+r and S/5 seconds of measured work; every end-to-end metric
// is the median over rounds. Traced (--trace 1 or --trace PATH): solo
// probes, then one round of S seconds whose chunks alternate between
// traced and untraced; prints the per-layer metrics and writes the spans
// as a Chrome trace to PATH (--trace 1: fompi_bench.trace.json). The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any correctness check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "quantile.hpp"
#include "rdma/network_model.hpp"
#include "tracer.hpp"

namespace fompi::bench {
namespace {

using Probes = std::map<std::string, double>;

struct Workload {
  const char* name;
  const char* primary;     ///< what primary_p50_us / primary_p99_us time
  const char* secondary;   ///< what secondary_p50_us / secondary_p99_us time
  const char* throughput;  ///< what ops_per_s counts
  std::function<Round(std::uint64_t seed, double seconds, Tracer*)> run;
  /// Uncontended cost (us) of one primary op, from the solo probes; h is
  /// the round's KV cache hit fraction.
  std::function<double(const Probes&, double h)> solo_us;
};

// Chunk sizes (ops per rank) keep one run_fleet call near 0.3 s here.
constexpr int kReadHeavyChunk = 65536;
constexpr int kWriteMixChunk = 16384;

/// A fleet get costs a cached or an uncached solo get, mixed by hit rate.
double kv_get_solo_us(const Probes& p, double h) {
  return h * p.at("kv.get_solo_us") + (1 - h) * p.at("kv.get_uncached_solo_us");
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"kv_read_heavy", "KvStore get", "KvStore put", "KV ops",
       [](std::uint64_t s, double sec, Tracer* t) {
         return run_kv_round(0.95, kReadHeavyChunk, s, sec, t);
       },
       kv_get_solo_us},
      {"kv_write_mix", "KvStore get", "KvStore put", "KV ops",
       [](std::uint64_t s, double sec, Tracer* t) {
         return run_kv_round(0.5, kWriteMixChunk, s, sec, t);
       },
       kv_get_solo_us},
      {"rma_ops", "8 B Win::put + flush", "8 B Win::fetch_and_op",
       "8 B puts in 1000-put bursts", run_rma_round,
       [](const Probes& p, double) {
         return p.at("core.put8_call_ns") / 1e3 + p.at("core.flush_us");
       }},
      {"milc_cg", "CG iteration (solve / iterations)", "CG solve to 1e-8",
       "CG iterations", run_milc_round,
       [](const Probes& p, double) {
         return p.at("apps.milc_apply_us") + 2 * p.at("fabric.allreduce_us");
       }},
  };
  return w;
}

/// Untraced rounds per workload; only --smoke runs fewer.
constexpr int kRounds = 5;
/// Set-ups per run behind setup_s, run back to back before the rounds.
constexpr int kSetupReps = 9;

struct Options {
  std::vector<const Workload*> selected;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< measured seconds per workload
  int rounds = kRounds;
  bool trace = false;
  std::string trace_out = "fompi_bench.trace.json";
  std::string out;  ///< run.json path (empty = none)
  bool smoke = false;
  int probe_reps = 4000;
};

/// One metric over the rounds of one workload.
struct Series {
  Metric m;  ///< value = median over rounds
  std::vector<double> rounds;
  double q1 = 0, q3 = 0;
};

struct Report {
  explicit Report(const Workload* wl = nullptr) : w(wl) {}
  const Workload* w;
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0, failed = 0;
  double load_before = -1, load_after = -1;
  std::vector<Series> metrics;
  std::vector<Metric> detail;
};

double load_avg_1m() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return -1;
  double v = -1;
  if (std::fscanf(f, "%lf", &v) != 1) v = -1;
  std::fclose(f);
  return v;
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them
/// (the default "exclusive" method), so compare.py agrees.
std::pair<double, double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long long>(v.size());
  if (n < 2) return {n == 1 ? v[0] : 0, n == 1 ? v[0] : 0};
  const auto q = [&](long long i) {
    const long long m = (n + 1) * i;
    const long long j = std::clamp(m / 4, 1LL, n - 1);
    const auto delta = static_cast<double>(m - j * 4);
    const auto k = static_cast<std::size_t>(j);
    return (v[k - 1] * (4 - delta) + v[k] * delta) / 4;
  };
  return {q(1), q(3)};
}

Series series(const char* name, const char* unit, std::vector<double> rounds) {
  Series s{{name, unit, median(rounds)}, rounds, 0, 0};
  std::tie(s.q1, s.q3) = quartiles(std::move(rounds));
  return s;
}

void absorb(Report* rep, const Round& r) {
  rep->attempted += r.attempted;
  rep->failed += r.failed;
  if (!r.correct && rep->correct) rep->error = r.error;
  rep->correct = rep->correct && r.correct;
}

double p_us(const trace::LatencyHisto& h, double q) {
  return interpolated_quantile(h, q) / 1e3;
}

/// Set-up phase times (s) of kSetupReps fleets that only set up.
struct SetupSamples {
  std::vector<double> total, fabric, ctor, seed;
};

SetupSamples measure_setup(const Workload& w, std::uint64_t seed) {
  SetupSamples s;
  for (int k = 0; k < kSetupReps; ++k) {
    const Round r = w.run(seed + static_cast<std::uint64_t>(k), 0, nullptr);
    s.total.push_back(r.setup_s);
    s.fabric.push_back(r.fabric_s);
    s.ctor.push_back(r.ctor_s);
    s.seed.push_back(r.seed_s);
  }
  return s;
}

Report run_untraced(const Workload& w, const Options& o) {
  Report rep(&w);
  const std::vector<double> setup = measure_setup(w, o.seed).total;
  std::vector<double> rate, p50, p99, s50, s99;
  for (int r = 0; r < o.rounds; ++r) {
    const Round rd = w.run(o.seed + static_cast<std::uint64_t>(r),
                           o.seconds / o.rounds, nullptr);
    absorb(&rep, rd);
    rate.push_back(rd.ops_per_s);
    p50.push_back(p_us(rd.primary, 0.5));
    p99.push_back(p_us(rd.primary, 0.99));
    s50.push_back(p_us(rd.secondary, 0.5));
    s99.push_back(p_us(rd.secondary, 0.99));
    rep.detail = rd.detail;  // last round's extras
  }
  rep.metrics = {series("setup_s", "s", setup),
                 series("ops_per_s", "ops/s", rate),
                 series("primary_p50_us", "us", p50),
                 series("primary_p99_us", "us", p99),
                 series("secondary_p50_us", "us", s50),
                 series("secondary_p99_us", "us", s99)};
  return rep;
}

Report run_traced(const Workload& w, const Options& o,
                  std::vector<std::unique_ptr<Tracer>>* tracers) {
  Report rep(&w);
  tracers->push_back(std::make_unique<Tracer>(w.name, kMaxRanks));
  Tracer* tr = tracers->back().get();
  const SetupSamples setup = measure_setup(w, o.seed);
  const std::vector<Metric> probe_metrics = run_probes(o.probe_reps, tr);
  Probes probes;
  for (const Metric& m : probe_metrics) probes[m.name] = m.value;
  const Round rd = w.run(o.seed, o.seconds, tr);
  absorb(&rep, rd);
  rep.detail = rd.detail;

  const auto per_op = [&](double n) {
    return rd.ops == 0 ? 0.0 : n / static_cast<double>(rd.ops);
  };
  const auto per_get = [&](std::uint64_t n) {
    return rd.kv_gets == 0 ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(rd.kv_gets);
  };
  const auto c = [&](Op op) { return static_cast<double>(rd.counters.get(op)); };
  // Computed, not measured (hence the unit us_modeled): every transport op
  // charged its small-message base latency plus the per-byte term, with no
  // overlap between ops.
  const rdma::NetworkModel nm;
  const double wire_ns = c(Op::transport_put) * nm.put_base_ns +
                         c(Op::transport_get) * nm.get_base_ns +
                         c(Op::transport_amo) * nm.amo_base_ns +
                         c(Op::bytes_copied) * nm.put_byte_ns;
  const double h = per_get(rd.kv_cache_hits);
  const double untraced_p50 = p_us(rd.primary_untraced, 0.5);
  std::vector<Metric> m = {
      {"kv.cache_hit_frac", "fraction", h},
      {"kv.read_retry_per_get", "count", per_get(rd.kv_read_retries)},
      {"progress.fiber_switch_per_op", "count", per_op(c(Op::fiber_switch))},
      {"rdma.ops_per_op", "count",
       per_op(c(Op::transport_put) + c(Op::transport_get) +
              c(Op::transport_amo))},
      {"rdma.modeled_wire_us_per_op", "us_modeled", per_op(wire_ns) / 1e3},
      {"rdma.pool_grow", "count", c(Op::pool_grow)},
      {"primary_wait_us", "us",
       p_us(rd.primary, 0.5) - w.solo_us(probes, h)},
      {"setup.fabric_s", "s", median(setup.fabric)},
      {"setup.ctor_s", "s", median(setup.ctor)},
      {"setup.seed_s", "s", median(setup.seed)},
      {"trace.overhead_frac", "fraction",
       untraced_p50 == 0 ? 0.0
                         : p_us(rd.primary_traced, 0.5) / untraced_p50 - 1},
  };
  m.insert(m.end(), probe_metrics.begin(), probe_metrics.end());
  for (const Metric& x : m) {
    rep.metrics.push_back(series(x.name.c_str(), x.unit.c_str(), {x.value}));
  }
  return rep;
}

Report run_workload(const Workload& w, const Options& o,
                    std::vector<std::unique_ptr<Tracer>>* tracers) {
  const double before = load_avg_1m();
  const unsigned nproc = std::thread::hardware_concurrency();
  if (before > static_cast<double>(nproc) - 1) {
    std::fprintf(stderr,
                 "warning: 1-minute load average %.2f exceeds nproc - 1 = %u; "
                 "timings will be noisy\n",
                 before, nproc - 1);
  }
  Report rep;
  try {
    rep = o.trace ? run_traced(w, o, tracers) : run_untraced(w, o);
  } catch (const std::exception& e) {
    rep = Report(&w);
    rep.correct = false;
    rep.error = std::string("exception: ") + e.what();
  }
  rep.load_before = before;
  rep.load_after = load_avg_1m();
  // A workload that threw before counting anything still reports one
  // attempted, failed op: the result line needs attempted >= 1.
  if (rep.attempted == 0) rep.failed = rep.attempted = 1;
  return rep;
}

void print_table(const Report& r, const Options& o) {
  std::printf("\n== %s (%s, seed %llu%s) ==\n", r.w->name,
              o.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(o.seed),
              o.trace ? "" : (", " + std::to_string(o.rounds) + " rounds").c_str());
  std::printf("   primary = %s; secondary = %s; ops = %s\n", r.w->primary,
              r.w->secondary, r.w->throughput);
  for (const Series& s : r.metrics) {
    std::printf("   %-30s %14.6g %-8s", s.m.name.c_str(), s.m.value,
                s.m.unit.c_str());
    if (s.rounds.size() > 1) {
      std::printf(" IQR %5.2f%%  rounds:",
                  s.m.value == 0 ? 0.0 : 100 * (s.q3 - s.q1) / s.m.value);
      for (const double v : s.rounds) std::printf(" %.6g", v);
    }
    std::printf("\n");
  }
  for (const Metric& d : r.detail) {
    std::printf("   %-30s %14.6g %s (last round)\n", d.name.c_str(), d.value,
                d.unit.c_str());
  }
  std::printf("   attempted %llu, failed %llu, load %.2f -> %.2f: %s%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.load_before,
              r.load_after, r.correct ? "correct" : "INCORRECT: ",
              r.error.c_str());
}

bool write_run_json(const std::string& path, const Options& o,
                    const std::vector<Report>& reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n  \"seed\": %llu,\n  \"rounds\": %d,\n  \"nproc\": %u,\n"
               "  \"seconds_per_workload_s\": %.17g,\n  \"traced\": %s,\n"
               "  \"workloads\": {",
               static_cast<unsigned long long>(o.seed), o.trace ? 1 : o.rounds,
               std::thread::hardware_concurrency(), o.seconds,
               o.trace ? "true" : "false");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Report& r = reps[i];
    std::fprintf(f,
                 "%s\n    \"%s\": {\n      \"correct\": %s,\n"
                 "      \"attempted_ops\": %llu,\n      \"failed_ops\": %llu,\n"
                 "      \"failed_frac\": %.17g,\n"
                 "      \"load_avg_1m_before\": %.2f,\n"
                 "      \"load_avg_1m_after\": %.2f,\n      \"metrics\": {",
                 i == 0 ? "" : ",", r.w->name, r.correct ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed),
                 static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                 r.load_before, r.load_after);
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
      const Series& s = r.metrics[k];
      std::fprintf(f,
                   "%s\n        \"%s\": {\"unit\": \"%s\", \"median\": %.17g, "
                   "\"q1\": %.17g, \"q3\": %.17g, \"rounds\": [",
                   k == 0 ? "" : ",", s.m.name.c_str(), s.m.unit.c_str(),
                   s.m.value, s.q1, s.q3);
      for (std::size_t j = 0; j < s.rounds.size(); ++j) {
        std::fprintf(f, "%s%.17g", j == 0 ? "" : ", ", s.rounds[j]);
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "\n      },\n      \"detail\": {");
    for (std::size_t k = 0; k < r.detail.size(); ++k) {
      std::fprintf(f, "%s\"%s\": %.17g", k == 0 ? "" : ", ",
                   r.detail[k].name.c_str(), r.detail[k].value);
    }
    std::fprintf(f, "}\n    }");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

/// The last stdout line. With several workloads, metric names carry a
/// "<workload>/" prefix.
void print_result_line(const std::vector<Report>& reps) {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Report& r : reps) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const Series& s : r.metrics) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s%s%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ",
                    reps.size() > 1 ? r.w->name : "",
                    reps.size() > 1 ? "/" : "", s.m.name.c_str(), s.m.value,
                    s.m.unit.c_str());
      metrics += buf;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fompi_bench: %s\nusage: fompi_bench [--workload NAME|all] "
               "[--seed N] [--seconds S] [--trace 0|1|PATH] [--out run.json] "
               "[--smoke]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string workload = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      o.trace = v != "0";
      if (v != "0" && v != "1") o.trace_out = v;
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage("unknown option");
    }
    if (end != nullptr && *end != '\0') usage("bad number");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  for (const Workload& w : workloads()) {
    if (workload == "all" || workload == w.name) o.selected.push_back(&w);
  }
  if (o.selected.empty()) usage("unknown workload");
  return o;
}

/// Runs the selected workloads; returns false if any was incorrect.
bool run(const Options& o) {
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<Report> reps;
  for (const Workload* w : o.selected) {
    reps.push_back(run_workload(*w, o, &tracers));
    print_table(reps.back(), o);
  }
  bool ok = true;
  if (o.trace) {
    std::vector<const Tracer*> ts;
    for (const auto& t : tracers) ts.push_back(t.get());
    if (Tracer::write_chrome_json(o.trace_out, ts)) {
      std::printf("\ntrace: %s\n", o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", o.trace_out.c_str());
      ok = false;
    }
  }
  if (!o.out.empty() && !write_run_json(o.out, o, reps)) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    ok = false;
  }
  print_result_line(reps);
  for (const Report& r : reps) ok = ok && r.correct;
  return ok;
}

}  // namespace
}  // namespace fompi::bench

int main(int argc, char** argv) {
  using namespace fompi::bench;
  Options o = parse(argc, argv);
  if (!o.smoke) return run(o) ? 0 : 1;
  // Smoke: every workload, one short untraced round, then a short traced
  // round with light probes. Checks correctness, not speed.
  o.seconds = 0.3;
  o.rounds = 1;
  o.probe_reps = 40;
  o.trace = false;
  bool ok = run(o);
  o.trace = true;
  ok = run(o) && ok;
  return ok ? 0 : 1;
}
