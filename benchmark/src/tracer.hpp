// Benchmark-side spans: the traced run records a span around each public
// library call the benchmark makes (name, rank, start, end, parent, request
// id) plus counter samples, keeps them in memory, and writes them as one
// Chrome trace-event JSON file at the end. Nothing inside src/ is traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fompi::bench {

class Tracer {
 public:
  /// Lanes are rank threads; the main thread records on lane 0 while no
  /// fleet runs. Each lane keeps at most `cap` spans; later ones are
  /// counted as dropped.
  Tracer(std::string process, int lanes, std::size_t cap = 1u << 17);

  /// Records [t0, t1] (now_ns stamps) on `rank`'s lane; returns the span id
  /// (nonzero, also for a dropped span) for children to name as parent.
  /// Only `rank`'s own thread may call this.
  std::uint64_t span(int rank, const char* name, std::uint64_t t0,
                     std::uint64_t t1, std::uint64_t parent = 0,
                     std::uint64_t req = 0);
  /// Records a counter sample (Chrome "C" event) on `rank`'s lane.
  void counter(int rank, const char* name, std::uint64_t t, double value);

  std::uint64_t dropped() const;

  /// Writes every tracer as one process of a Chrome trace; false on I/O
  /// failure.
  static bool write_chrome_json(const std::string& path,
                                const std::vector<const Tracer*>& tracers);

 private:
  struct SpanRec {
    const char* name;
    std::uint64_t t0, t1, id, parent, req;
  };
  struct CounterRec {
    const char* name;
    std::uint64_t t;
    double value;
  };
  struct Lane {
    std::vector<SpanRec> spans;
    std::vector<CounterRec> counters;
    std::uint64_t next_id = 0;
    std::uint64_t dropped = 0;
  };
  Lane& lane(int rank);

  std::string process_;
  std::uint64_t origin_ns_;
  std::size_t cap_;
  std::vector<Lane> lanes_;
};

}  // namespace fompi::bench
