#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/error.hpp"

namespace fompi::trace {

const char* to_string(EvClass cls) noexcept {
  switch (cls) {
    case EvClass::put:           return "put";
    case EvClass::get:           return "get";
    case EvClass::amo:           return "amo";
    case EvClass::vectored:      return "vectored";
    case EvClass::bulk_sync:     return "bulk_sync";
    case EvClass::fence:         return "fence";
    case EvClass::pscw_post:     return "pscw_post";
    case EvClass::pscw_start:    return "pscw_start";
    case EvClass::pscw_complete: return "pscw_complete";
    case EvClass::pscw_wait:     return "pscw_wait";
    case EvClass::lock:          return "lock";
    case EvClass::unlock:        return "unlock";
    case EvClass::flush:         return "flush";
    case EvClass::win_sync:      return "win_sync";
    case EvClass::notify_wait:   return "notify_wait";
    case EvClass::barrier:       return "barrier";
    case EvClass::fault:         return "fault";
    case EvClass::batch:         return "batch";
    case EvClass::fiber:         return "fiber";
    case EvClass::notify_post:   return "notify_post";
    case EvClass::kv:            return "kv";
    case EvClass::recovery:      return "recovery";
    case EvClass::kCount:        break;
  }
  return "unknown";
}

const char* to_string(EvPhase ph) noexcept {
  switch (ph) {
    case EvPhase::issue:    return "issue";
    case EvPhase::doorbell: return "doorbell";
    case EvPhase::complete: return "complete";
    case EvPhase::begin:    return "begin";
    case EvPhase::end:      return "end";
    case EvPhase::retry:    return "retry";
    case EvPhase::kCount:   break;
  }
  return "unknown";
}

namespace detail {
thread_local Stage tl_stage;

void flush_stage() noexcept {
  Stage& st = tl_stage;
  if (st.ring != nullptr && st.n != 0) st.ring->push_batch(st.buf.data(), st.n);
  st.n = 0;
}
}  // namespace detail

void bind_thread(Ring* ring) noexcept {
  detail::flush_stage();
  detail::tl_stage.ring = ring;
}

Ring* bound_ring() noexcept { return detail::tl_stage.ring; }

void flush_thread() noexcept { detail::flush_stage(); }

// ---------------------------------------------------------------------------
// LatencyHisto
// ---------------------------------------------------------------------------

// Values below 2^(kSubBits+1) map exactly (one bucket per nanosecond);
// every higher octave [2^(w-1), 2^w) splits into 2^kSubBits sub-buckets.
namespace {
constexpr std::uint64_t kExactLimit = 1u << (LatencyHisto::kSubBits + 1);
}  // namespace

std::size_t LatencyHisto::bucket_of(std::uint64_t ns) noexcept {
  if (ns < kExactLimit) return static_cast<std::size_t>(ns);
  const int w = std::bit_width(ns);  // >= kSubBits + 2
  const int shift = w - kSubBits - 1;
  const std::size_t sub =
      static_cast<std::size_t>((ns >> shift) & ((1u << kSubBits) - 1));
  return static_cast<std::size_t>(kExactLimit) +
         (static_cast<std::size_t>(w - kSubBits - 2) << kSubBits) + sub;
}

std::uint64_t LatencyHisto::bucket_floor(std::size_t bucket) noexcept {
  if (bucket < kExactLimit) return bucket;
  const std::size_t b = bucket - static_cast<std::size_t>(kExactLimit);
  const int w = static_cast<int>(b >> kSubBits) + kSubBits + 2;
  const std::uint64_t sub = b & ((1u << kSubBits) - 1);
  const int shift = w - kSubBits - 1;
  return (std::uint64_t{1} << (w - 1)) + (sub << shift);
}

void LatencyHisto::add(std::uint64_t ns) noexcept {
  ++buckets_[bucket_of(ns)];
  ++count_;
  if (ns > max_) max_ = ns;
}

void LatencyHisto::merge(const LatencyHisto& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  if (other.max_ > max_) max_ = other.max_;
}

std::uint64_t LatencyHisto::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile sample, 1-based; walk the cumulative counts.
  const std::uint64_t want =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= want) return bucket_floor(i);
  }
  return max_;
}

// ---------------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------------

namespace {
std::atomic<TraceSession*> g_active{nullptr};
}  // namespace

TraceSession::TraceSession(int nranks) : TraceSession(nranks, Config{}) {}

TraceSession::TraceSession(int nranks, Config cfg)
    : cfg_(std::move(cfg)), start_wall_ns_(now_ns()) {
  FOMPI_REQUIRE(nranks >= 1, ErrClass::arg, "TraceSession needs >= 1 rank");
  FOMPI_REQUIRE(cfg_.ring_capacity >= 1, ErrClass::arg,
                "TraceSession needs a nonzero ring capacity");
  rings_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    rings_.push_back(std::make_unique<Ring>(cfg_.ring_capacity));
  }
  TraceSession* expected = nullptr;
  FOMPI_REQUIRE(
      g_active.compare_exchange_strong(expected, this,
                                       std::memory_order_acq_rel),
      ErrClass::arg, "only one TraceSession may be active at a time");
}

TraceSession::~TraceSession() {
  TraceSession* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

TraceSession* TraceSession::active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

std::uint64_t TraceSession::total_events() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->size();
  return n;
}

std::uint64_t TraceSession::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : rings_) n += r->dropped();
  return n;
}

LatencyHisto TraceSession::histogram(EvClass cls) const {
  LatencyHisto h;
  std::vector<std::uint64_t> begin_stack;
  for (const auto& rp : rings_) {
    const Ring& ring = *rp;
    begin_stack.clear();
    const std::size_t n = ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = ring[i];
      if (e.cls != cls) continue;
      switch (e.phase) {
        case EvPhase::begin:
          begin_stack.push_back(e.wall_ns);
          break;
        case EvPhase::end:
          // Unmatched ends (ring filled up mid-span) are skipped rather
          // than fabricating a duration.
          if (!begin_stack.empty()) {
            h.add(e.wall_ns - begin_stack.back());
            begin_stack.pop_back();
          }
          break;
        case EvPhase::issue:
        case EvPhase::doorbell:
          if (e.dur_ns != 0) h.add(e.dur_ns);
          break;
        case EvPhase::complete:
        case EvPhase::retry:
        case EvPhase::kCount:
          break;
      }
    }
  }
  return h;
}

HistoSummary TraceSession::summary(EvClass cls) const {
  const LatencyHisto h = histogram(cls);
  HistoSummary s;
  s.count = h.count();
  s.p50_ns = h.quantile(0.50);
  s.p99_ns = h.quantile(0.99);
  s.max_ns = h.max();
  return s;
}

bool TraceSession::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_json();
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && wrote == json.size();
  return ok;
}

std::string TraceSession::write_postmortem() const {
  if (cfg_.postmortem_path.empty()) return {};
  if (!write_chrome_json(cfg_.postmortem_path)) return {};
  return cfg_.postmortem_path;
}

}  // namespace fompi::trace
