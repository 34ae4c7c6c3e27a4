#include "fabric/fabric.hpp"

#include <cstdio>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/timing.hpp"
#include "trace/trace.hpp"

namespace fompi::fabric {

Fabric::Fabric(FabricOptions opts) : opts_(opts), domain_(opts.domain) {
  if (opts_.hang_timeout_ns != 0) {
    watchdog_deadline_ns_ = now_ns() + opts_.hang_timeout_ns;
  }
  coll_ = std::make_unique<Collectives>(domain_);
  p2p_ = std::make_unique<P2P>(domain_, opts_.eager_threshold);
  // Every back-off step and the NIC's long model-time waits poll this hook,
  // so a peer failure unwinds a waiting rank instead of hanging the fleet.
  domain_.set_progress_hook(&Fabric::progress_hook, this);
}

std::exception_ptr Fabric::first_error() const {
  std::scoped_lock lock(abort_mu_);
  return first_error_;
}

int Fabric::lowest_alive() const noexcept {
  for (int r = 0; r < domain_.nranks(); ++r) {
    if (domain_.alive(r)) return r;
  }
  return -1;
}

std::shared_ptr<void> Fabric::ext_get(const std::string& key) const {
  std::scoped_lock lock(ext_mu_);
  const auto it = ext_.find(key);
  return it == ext_.end() ? nullptr : it->second;
}

std::shared_ptr<void> Fabric::ext_put_once(const std::string& key,
                                           std::shared_ptr<void> value) {
  std::scoped_lock lock(ext_mu_);
  auto [it, inserted] = ext_.try_emplace(key, std::move(value));
  return it->second;
}

void Fabric::abort(std::exception_ptr e) const noexcept {
  {
    std::scoped_lock lock(abort_mu_);
    if (first_error_ == nullptr) first_error_ = e;
  }
  aborted_.store(true, std::memory_order_release);
}

void Fabric::progress_hook(void* fabric) {
  // Hang watchdog: every waiting rank funnels through here (each back-off
  // step and the NIC's long waits), so a silently hung peer — one that
  // never throws — still gets the fleet unwound with a typed timeout.
  const Fabric& f = *static_cast<const Fabric*>(fabric);
  if (f.watchdog_deadline_ns_ != 0 &&
      !f.aborted_.load(std::memory_order_relaxed) &&
      now_ns() > f.watchdog_deadline_ns_) {
    f.abort(std::make_exception_ptr(
        Error(ErrClass::timeout, "fabric hang watchdog expired")));
  }
  if (f.aborted_.load(std::memory_order_acquire)) {
    raise(ErrClass::internal, "aborted: a peer rank failed");
  }
}

void run_ranks(int nranks, const std::function<void(RankCtx&)>& body,
               FabricOptions opts) {
  FOMPI_REQUIRE(nranks >= 1, ErrClass::arg, "run_ranks needs >= 1 rank");
  opts.domain.nranks = nranks;
  Fabric fabric(opts);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&fabric, &body, r] {
      // Flight recorder: while a TraceSession is active, each rank thread
      // records into its own ring (unbound threads pay a single branch).
      trace::TraceSession* ts = trace::TraceSession::active();
      if (ts != nullptr && r < ts->nranks()) trace::bind_thread(&ts->ring(r));
      RankCtx ctx(fabric, r);
      try {
        body(ctx);
      } catch (const RankKilledError&) {
        // A fault-plan kill is a *modeled* failure, not a bug: the NIC
        // already marked the rank dead in the liveness table. Under
        // errors_return the survivors keep running and observe the death
        // as typed peer_dead statuses; otherwise it aborts the fleet like
        // any other failure.
        if (!fabric.options().errors_return) {
          fabric.abort(std::current_exception());
        }
      } catch (...) {
        fabric.abort(std::current_exception());
      }
      trace::bind_thread(nullptr);
    });
  }
  for (auto& t : threads) t.join();

  if (std::exception_ptr e = fabric.first_error()) {
    // A rank failed (or a killed peer aborted the fleet through the
    // progress hook): dump the flight-recorder rings post-mortem so the hang
    // leaves evidence of what every rank was doing.
    if (trace::TraceSession* ts = trace::TraceSession::active()) {
      const std::string path = ts->write_postmortem();
      if (!path.empty()) {
        std::fprintf(stderr,
                     "[fompi] fleet abort: flight-recorder trace dumped to "
                     "%s (%llu events, %llu dropped)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(ts->total_events()),
                     static_cast<unsigned long long>(ts->total_dropped()));
      }
    }
    std::rethrow_exception(e);
  }
}

}  // namespace fompi::fabric
