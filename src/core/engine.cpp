#include "core/engine.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

namespace {

inline void hash_mix(std::uint64_t& h, std::uint64_t value) {
  // FNV-1a over the value's bytes, 8 at a time.
  h ^= value;
  h *= 0x100000001b3ull;
}

}  // namespace

std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_mix(h, static_cast<std::uint64_t>(g.n()));
  hash_mix(h, static_cast<std::uint64_t>(g.m()));
  for (int v = 0; v < g.n(); ++v) {
    hash_mix(h, g.id(v));
    hash_mix(h, g.label(v));
  }
  for (int e = 0; e < g.m(); ++e) {
    hash_mix(h, static_cast<std::uint64_t>(g.edge_u(e)));
    hash_mix(h, static_cast<std::uint64_t>(g.edge_v(e)));
    hash_mix(h, g.edge_label(e));
    hash_mix(h, static_cast<std::uint64_t>(g.edge_weight(e)));
  }
  return h;
}

void VerdictAttribution::finish(const Graph& g, const LocalVerifier& a,
                                RunResult* result) {
  if (valid_ && graph_ == &g && verifier_ == &a) {
    // Both lists are ascending (engines emit rejects in node order), so
    // the flips are two linear set-differences.
    result->flips_known = true;
    result->newly_rejecting.clear();
    result->newly_accepting.clear();
    std::set_difference(result->rejecting.begin(), result->rejecting.end(),
                        last_rejecting_.begin(), last_rejecting_.end(),
                        std::back_inserter(result->newly_rejecting));
    std::set_difference(last_rejecting_.begin(), last_rejecting_.end(),
                        result->rejecting.begin(), result->rejecting.end(),
                        std::back_inserter(result->newly_accepting));
  }
  graph_ = &g;
  verifier_ = &a;
  last_rejecting_ = result->rejecting;
  valid_ = true;
}

RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a, CentreVerifier& lane) {
  const int n = g.n();
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(n);
  std::vector<std::uint8_t> ok(static_cast<std::size_t>(n));
  lane.verify_range(g, p, a, 0, n, ok.data());
  for (int v = 0; v < n; ++v) {
    if (!ok[static_cast<std::size_t>(v)]) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a) {
  CentreVerifier lane;
  return sweep_sequential(g, p, a, lane);
}

RunResult DirectEngine::run(const Graph& g, const Proof& p,
                            const LocalVerifier& a) {
  RunResult result;
  if (in_run_) {
    result = sweep_sequential(g, p, a);
  } else {
    in_run_ = true;
    try {
      result = sweep_sequential(g, p, a, lane_);
    } catch (...) {
      in_run_ = false;
      throw;
    }
    in_run_ = false;
  }
  attribution_.finish(g, a, &result);
  return result;
}

// ---------------------------------------------------------------------------
// ParallelEngine: node shards over the persistent WorkerPool.
// ---------------------------------------------------------------------------

ParallelEngine::ParallelEngine(int threads) : threads_(threads) {}

ParallelEngine::~ParallelEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void ParallelEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  // The pool is created lazily on the first parallel run; when it exists
  // already, register its lanes now, otherwise run() registers at
  // creation.
  if (pool_ != nullptr) {
    pool_->register_metrics(telemetry_->metrics, "pool.parallel", this);
  }
}

int ParallelEngine::effective_threads(int n) const {
  int k = threads_ > 0
              ? threads_
              : static_cast<int>(std::thread::hardware_concurrency());
  if (k < 1) k = 1;
  return std::max(1, std::min(k, n));
}

RunResult ParallelEngine::run(const Graph& g, const Proof& p,
                              const LocalVerifier& a) {
  RunResult result = run_impl(g, p, a);
  result.evaluated = static_cast<std::uint64_t>(g.n());
  attribution_.finish(g, a, &result);
  return result;
}

RunResult ParallelEngine::run_impl(const Graph& g, const Proof& p,
                                   const LocalVerifier& a) {
  const int n = g.n();
  const int workers = effective_threads(n);
  if (static_cast<int>(lanes_.size()) < std::max(workers, 1)) {
    lanes_.resize(static_cast<std::size_t>(std::max(workers, 1)));
  }
  if (workers <= 1 || n < 2 * workers) {
    return sweep_sequential(g, p, a, lanes_[0]);
  }

  obs::maybe_emit(journal_, obs::JournalEventKind::kLaneDispatch,
                  "engine.parallel",
                  {{"lanes", workers}, {"nodes", n}});
  const int max_workers =
      effective_threads(std::numeric_limits<int>::max() / 2);
  if (pool_ == nullptr || pool_->size() < workers) {
    pool_ = std::make_unique<WorkerPool>(std::max(workers, max_workers));
    if (telemetry_ != nullptr) {
      // Re-register on pool growth: derived() replaces same-name
      // callbacks, and remove_owned(this) in the destructor withdraws the
      // per-lane entries of the widest pool.
      pool_->register_metrics(telemetry_->metrics, "pool.parallel", this);
    }
  }
  verdicts_.resize(static_cast<std::size_t>(n));
  // Contiguous shard [lo, hi) per worker, so collecting verdicts in node
  // order reproduces the sequential ascending reject order exactly.
  const std::function<void(int)> job = [&](int w) {
    const int lo = static_cast<int>(static_cast<long long>(n) * w / workers);
    const int hi =
        static_cast<int>(static_cast<long long>(n) * (w + 1) / workers);
    lanes_[static_cast<std::size_t>(w)].verify_range(
        g, p, a, lo, hi, verdicts_.data() + lo);
  };
  pool_->dispatch(workers, job);

  RunResult result;
  for (int v = 0; v < n; ++v) {
    if (!verdicts_[static_cast<std::size_t>(v)]) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

ExecutionEngine& default_engine() {
  static DirectEngine engine;
  return engine;
}

}  // namespace lcp
