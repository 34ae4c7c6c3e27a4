#include "tracer.hpp"

#include <cstdio>
#include <memory>

#include "common/error.hpp"
#include "common/timing.hpp"

namespace fompi::bench {

Tracer::Tracer(std::string process, int lanes, std::size_t cap)
    : process_(std::move(process)),
      origin_ns_(now_ns()),
      cap_(cap),
      lanes_(static_cast<std::size_t>(lanes)) {
  // Reserved up front so no span record reallocates inside a timed chunk.
  for (auto& l : lanes_) l.spans.reserve(cap_);
}

Tracer::Lane& Tracer::lane(int rank) {
  FOMPI_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < lanes_.size(),
                ErrClass::arg, "tracer: rank has no lane");
  return lanes_[static_cast<std::size_t>(rank)];
}

std::uint64_t Tracer::span(int rank, const char* name, std::uint64_t t0,
                           std::uint64_t t1, std::uint64_t parent,
                           std::uint64_t req) {
  Lane& l = lane(rank);
  const std::uint64_t id =
      (static_cast<std::uint64_t>(rank + 1) << 40) | ++l.next_id;
  if (l.spans.size() < cap_) {
    l.spans.push_back(SpanRec{name, t0, t1, id, parent, req});
  } else {
    ++l.dropped;
  }
  return id;
}

void Tracer::counter(int rank, const char* name, std::uint64_t t,
                     double value) {
  Lane& l = lane(rank);
  if (l.counters.size() < cap_) {
    l.counters.push_back(CounterRec{name, t, value});
  } else {
    ++l.dropped;
  }
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l.dropped;
  return n;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::vector<const Tracer*>& tracers) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(out, ",\n");
    first = false;
  };
  std::uint64_t dropped = 0;
  for (std::size_t p = 0; p < tracers.size(); ++p) {
    const Tracer& t = *tracers[p];
    dropped += t.dropped();
    const auto us = [&](std::uint64_t ns) {
      return static_cast<double>(ns - t.origin_ns_) / 1e3;
    };
    sep();
    std::fprintf(out,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 p + 1, t.process_.c_str());
    for (std::size_t r = 0; r < t.lanes_.size(); ++r) {
      const Lane& l = t.lanes_[r];
      sep();
      std::fprintf(out,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%zu,"
                   "\"tid\":%zu,\"args\":{\"name\":\"rank %zu\"}}",
                   p + 1, r, r);
      for (const SpanRec& s : l.spans) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,\"tid\":%zu,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"req\":%llu}}",
                     s.name, p + 1, r, us(s.t0),
                     static_cast<double>(s.t1 - s.t0) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.req));
      }
      for (const CounterRec& c : l.counters) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%zu,\"tid\":%zu,"
                     "\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
                     c.name, p + 1, r, us(c.t), c.value);
      }
    }
  }
  std::fprintf(out, "\n],\"otherData\":{\"dropped\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::ferror(out) == 0;
}

}  // namespace fompi::bench
