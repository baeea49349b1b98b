#include "core/engine.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>

#include "core/delta.hpp"
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
                           const LocalVerifier& a) {
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(g.n());
  ViewExtractor extractor(g);
  const int radius = a.radius();
  for (int v = 0; v < g.n(); ++v) {
    const View view = extractor.extract(p, v, radius);
    if (!a.accept(view)) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

DirectEngine::~DirectEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void DirectEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  registry.derived(
      "engine.direct.migrations",
      [this] { return static_cast<double>(stats_.migrations); }, this);
  registry.derived(
      "engine.direct.migrated_views",
      [this] { return static_cast<double>(stats_.migrated_views); }, this);
  registry.derived(
      "engine.direct.migration_reextractions",
      [this] {
        return static_cast<double>(stats_.migration_reextractions);
      },
      this);
  registry.derived(
      "engine.direct.cached_graphs",
      [this] { return static_cast<double>(cached_graph_count()); }, this);
  registry.derived(
      "engine.direct.cached_ball_nodes",
      [this] { return static_cast<double>(cached_ball_nodes_); }, this);
  if (options_.store != nullptr) {
    register_ball_store_metrics(registry, options_.store, "store.ball",
                                this);
  }
}

DirectEngine::CacheEntry* DirectEngine::find_entry(std::uint64_t fingerprint,
                                                   int radius) {
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->fingerprint == fingerprint && it->radius == radius) {
      // Move to front: the list is kept in recency order.
      cache_.splice(cache_.begin(), cache_, it);
      return &cache_.front();
    }
  }
  return nullptr;
}

bool DirectEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  // The generation stamps were taken against the previous tracker (or none);
  // they are meaningless under the new one.
  for (CacheEntry& entry : cache_) entry.tracker_synced = false;
  return tracker_ != nullptr && options_.cache_views;
}

void DirectEngine::remember_overflow(std::uint64_t fingerprint, int radius) {
  if (overflow_.size() >= 4) overflow_.erase(overflow_.begin());
  overflow_.push_back(Overflow{fingerprint, radius});
  if (options_.store != nullptr) {
    options_.store->mark_uncacheable(fingerprint, radius);
  }
  obs::maybe_emit(journal_, obs::JournalEventKind::kCacheOverflow,
                  "engine.direct", {{"radius", radius}});
}

DirectEngine::CacheEntry* DirectEngine::migrate_entry(
    const Graph& g, const Proof& p, int radius, std::uint64_t fingerprint) {
  if (tracker_ == nullptr || &tracker_->graph() != &g) return nullptr;
  // An out-of-band mutation makes the dirty log an incomplete account of
  // the divergence; replaying it would rekey wrong views to g's
  // fingerprint.  Same guard (and cost) as IncrementalEngine's.
  if (tracker_->state_fingerprint() !=
      DeltaTracker::state_fingerprint_of(g, p)) {
    return nullptr;
  }
  CacheEntry* entry = nullptr;
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->radius == radius && it->tracker_synced) {
      cache_.splice(cache_.begin(), cache_, it);
      entry = &cache_.front();
      break;
    }
  }
  if (entry == nullptr) return nullptr;
  const auto records = tracker_->records_since(entry->tracker_generation);
  if (!records.has_value()) return nullptr;  // log trimmed: resweep

  // Flatten the per-batch logs; order is the application order, which is
  // what View::classify_delta's stepwise soundness contract wants.
  std::vector<ViewDelta> deltas;
  std::size_t added = 0;
  for (const DirtyRecord* record : *records) {
    deltas.insert(deltas.end(), record->deltas.begin(),
                  record->deltas.end());
    added += record->added_nodes.size();
  }
  const int old_n = static_cast<int>(entry->views.size());
  if (old_n + static_cast<int>(added) != g.n()) return nullptr;

  ++stats_.migrations;
  extractor_.bind(g);
  entry->views.resize(static_cast<std::size_t>(g.n()));
  std::size_t ball_nodes = 0;
  for (int v = 0; v < g.n(); ++v) {
    BallPtr& slot = entry->views[static_cast<std::size_t>(v)];
    // Appended nodes have no cached view; everyone else replays the log,
    // patching in place (COW keeps store sharers pristine) until a delta
    // moves the ball's frontier.
    bool rebuild = v >= old_n;
    if (!rebuild) {
      for (const ViewDelta& d : deltas) {
        const PatchResult outcome = slot->view.classify_delta(g, d);
        if (outcome == PatchResult::kUnchanged) continue;
        if (outcome == PatchResult::kPatched) {
          exclusive_ball(slot).view.apply_delta_unchecked(g, d);
        } else {
          rebuild = true;
          break;
        }
      }
    }
    if (rebuild) {
      auto fresh = std::make_shared<CachedNodeView>();
      fresh->view = extractor_.extract(p, v, radius, &fresh->host);
      slot = std::move(fresh);
      ++stats_.migration_reextractions;
    } else {
      ++stats_.migrated_views;
    }
    ball_nodes += slot->host.size();
    if (ball_nodes > options_.max_cached_ball_nodes) {
      // The mutated graph's balls blow the budget on their own: abandon
      // the migration and remember the pair so run() sweeps uncached.
      cached_ball_nodes_ -= entry->ball_nodes;
      cache_.pop_front();
      remember_overflow(fingerprint, radius);
      return nullptr;
    }
  }
  cached_ball_nodes_ += ball_nodes - entry->ball_nodes;
  entry->ball_nodes = ball_nodes;
  entry->fingerprint = fingerprint;
  entry->tracker_generation = tracker_->generation();
  evict_to_budget(/*incoming_entries=*/0);
  return entry;
}

void DirectEngine::evict_to_budget(std::size_t incoming_entries) {
  while (!cache_.empty() &&
         (cache_.size() + incoming_entries > options_.max_cached_graphs ||
          cached_ball_nodes_ > options_.max_cached_ball_nodes)) {
    cached_ball_nodes_ -= cache_.back().ball_nodes;
    cache_.pop_back();
  }
}

RunResult DirectEngine::run_from_entry(CacheEntry& entry, const Proof& p,
                                       const LocalVerifier& a) {
  // Cache hit: the balls are unchanged, only proof labels move.  The
  // views are all materialised, so the verifier gets one batched call.
  // refresh_ball_proofs is copy-on-write: balls still shared with a
  // BallStore (or another adopter) are cloned on their first refresh and
  // untouched when the stored proofs already match.
  const int n = static_cast<int>(entry.views.size());
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(n);
  batch_views_.resize(static_cast<std::size_t>(n));
  batch_out_.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    BallPtr& cached = entry.views[static_cast<std::size_t>(v)];
    refresh_ball_proofs(cached, p);
    batch_views_[static_cast<std::size_t>(v)] = &cached->view;
  }
  a.accept_batch(batch_views_.data(), static_cast<std::size_t>(n),
                 batch_out_.data());
  for (int v = 0; v < n; ++v) {
    if (!batch_out_[static_cast<std::size_t>(v)]) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

RunResult DirectEngine::run(const Graph& g, const Proof& p,
                            const LocalVerifier& a) {
  const DirectEngineStats before = stats_;
  RunResult result = run_impl(g, p, a);
  if (journal_ != nullptr && stats_.migrations != before.migrations) {
    journal_->emit(
        obs::JournalEventKind::kPatchFallback, "engine.direct",
        {{"patched", static_cast<std::int64_t>(stats_.migrated_views -
                                               before.migrated_views)},
         {"reextracted",
          static_cast<std::int64_t>(stats_.migration_reextractions -
                                    before.migration_reextractions)}});
  }
  attribution_.finish(g, a, &result);
  return result;
}

RunResult DirectEngine::run_impl(const Graph& g, const Proof& p,
                                 const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(n);

  if (options_.cache_views) {
    const std::uint64_t fingerprint = graph_fingerprint(g);
    for (const Overflow& o : overflow_) {
      if (fingerprint == o.fingerprint && radius == o.radius) {
        // This graph already blew the cache cap once; don't rebuild-and-drop
        // the cache on every run, just sweep uncached.
        return sweep_sequential(g, p, a);
      }
    }
    if (CacheEntry* entry = find_entry(fingerprint, radius);
        entry != nullptr && static_cast<int>(entry->views.size()) == n) {
      if (entry->tracker_synced && tracker_ != nullptr &&
          &tracker_->graph() == &g) {
        // Proof-only batches moved the generation without changing the
        // graph; keep the lineage current so a later migration replays
        // only what actually diverged.
        entry->tracker_generation = tracker_->generation();
      }
      return run_from_entry(*entry, p, a);
    }
    if (CacheEntry* migrated = migrate_entry(g, p, radius, fingerprint);
        migrated != nullptr) {
      return run_from_entry(*migrated, p, a);
    }
    for (const Overflow& o : overflow_) {
      // migrate_entry may have just discovered the overflow.
      if (fingerprint == o.fingerprint && radius == o.radius) {
        return sweep_sequential(g, p, a);
      }
    }
    if (options_.store != nullptr &&
        options_.store->uncacheable(fingerprint, radius)) {
      return sweep_sequential(g, p, a);
    }
    if (options_.store != nullptr) {
      // Read-through: adopt a warm sweep another engine published.  The
      // pointers are shared, not copied — COW in run_from_entry diverges
      // exactly the balls whose proofs differ.
      CacheEntry adopted;
      if (options_.store->lookup(fingerprint, radius, &adopted.views,
                                 &adopted.ball_nodes) &&
          static_cast<int>(adopted.views.size()) == n &&
          adopted.ball_nodes <= options_.max_cached_ball_nodes) {
        adopted.fingerprint = fingerprint;
        adopted.radius = radius;
        // The store's views match g's current bytes (fingerprint-keyed),
        // so the lineage starts at the tracker's current generation.
        adopted.tracker_synced =
            tracker_ != nullptr && &tracker_->graph() == &g;
        adopted.tracker_generation =
            adopted.tracker_synced ? tracker_->generation() : 0;
        evict_to_budget(/*incoming_entries=*/1);
        cached_ball_nodes_ += adopted.ball_nodes;
        cache_.push_front(std::move(adopted));
        evict_to_budget(/*incoming_entries=*/0);
        return run_from_entry(cache_.front(), p, a);
      }
    }

    // Build a fresh entry while running.
    CacheEntry entry;
    entry.fingerprint = fingerprint;
    entry.radius = radius;
    entry.tracker_synced = tracker_ != nullptr && &tracker_->graph() == &g;
    entry.tracker_generation =
        entry.tracker_synced ? tracker_->generation() : 0;
    extractor_.bind(g);
    bool caching = true;
    std::vector<int> host;
    for (int v = 0; v < n; ++v) {
      View view = extractor_.extract(p, v, radius, caching ? &host : nullptr);
      if (!a.accept(view)) {
        result.all_accept = false;
        result.rejecting.push_back(v);
      }
      if (caching) {
        entry.ball_nodes += host.size();
        if (entry.ball_nodes > options_.max_cached_ball_nodes) {
          // A single graph exceeding the cap alone can never be cached.
          caching = false;
          remember_overflow(fingerprint, radius);
          entry.views.clear();
          entry.views.shrink_to_fit();
        } else {
          entry.views.push_back(std::make_shared<CachedNodeView>(
              CachedNodeView{std::move(view), std::move(host)}));
        }
      }
    }
    if (caching) {
      if (options_.store != nullptr) {
        // Share, don't copy: the store takes refcounted handles to the
        // same balls; this engine's next proof refresh COW-diverges only
        // the balls it touches, leaving the store's snapshot pristine.
        options_.store->publish(fingerprint, radius, entry.views,
                                entry.ball_nodes);
      }
      evict_to_budget(/*incoming_entries=*/1);
      cached_ball_nodes_ += entry.ball_nodes;
      cache_.push_front(std::move(entry));
      // The new entry may itself push the total over the ball budget.
      evict_to_budget(/*incoming_entries=*/0);
    }
    return result;
  }

  // Cache disabled: the stateless sweep keeps this path re-entrant (a
  // verifier may itself call into the default engine).
  return sweep_sequential(g, p, a);
}

// ---------------------------------------------------------------------------
// ParallelEngine: node shards over the persistent WorkerPool.
// ---------------------------------------------------------------------------

ParallelEngine::ParallelEngine(int threads, std::shared_ptr<BallStore> store)
    : threads_(threads), store_(std::move(store)) {}

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
  if (store_ != nullptr) {
    register_ball_store_metrics(telemetry_->metrics, store_, "store.ball",
                                this);
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
  const int radius = a.radius();
  const int workers = effective_threads(n);
  RunResult result;

  // When a shared store is attached and doesn't hold this (graph, radius)
  // yet, the sweep captures the balls it extracts anyway and publishes
  // them afterwards, so a caching engine attached to the same store starts
  // warm.  Captured balls go straight to the store (this engine keeps
  // nothing), making the store the sole owner.
  std::vector<BallPtr> collected;
  std::uint64_t fingerprint = 0;
  bool collect = false;
  if (store_ != nullptr) {
    fingerprint = graph_fingerprint(g);
    collect = !store_->uncacheable(fingerprint, radius) &&
              !store_->contains(fingerprint, radius);
    if (collect) collected.resize(static_cast<std::size_t>(n));
  }

  if (workers <= 1 || n < 2 * workers) {
    if (!collect) return sweep_sequential(g, p, a);
    ViewExtractor extractor(g);
    std::size_t ball_nodes = 0;
    for (int v = 0; v < n; ++v) {
      auto ball = std::make_shared<CachedNodeView>();
      ball->view = extractor.extract(p, v, radius, &ball->host);
      ball_nodes += ball->host.size();
      if (!a.accept(ball->view)) {
        result.all_accept = false;
        result.rejecting.push_back(v);
      }
      collected[static_cast<std::size_t>(v)] = std::move(ball);
    }
    store_->publish(fingerprint, radius, std::move(collected), ball_nodes);
    return result;
  }

  // Contiguous shard [lo, hi) per worker so that concatenating per-shard
  // rejects in shard order reproduces the sequential ascending order
  // exactly.
  std::vector<std::vector<int>> rejecting(static_cast<std::size_t>(workers));
  std::vector<std::size_t> shard_ball_nodes(
      static_cast<std::size_t>(workers), 0);
  auto shard = [&](int w) {
    const int lo = static_cast<int>(static_cast<long long>(n) * w / workers);
    const int hi =
        static_cast<int>(static_cast<long long>(n) * (w + 1) / workers);
    ViewExtractor extractor(g);
    for (int v = lo; v < hi; ++v) {
      if (collect) {
        auto ball = std::make_shared<CachedNodeView>();
        ball->view = extractor.extract(p, v, radius, &ball->host);
        shard_ball_nodes[static_cast<std::size_t>(w)] += ball->host.size();
        if (!a.accept(ball->view)) {
          rejecting[static_cast<std::size_t>(w)].push_back(v);
        }
        collected[static_cast<std::size_t>(v)] = std::move(ball);
      } else {
        const View view = extractor.extract(p, v, radius);
        if (!a.accept(view)) {
          rejecting[static_cast<std::size_t>(w)].push_back(v);
        }
      }
    }
  };

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
  const std::function<void(int)> job = shard;
  pool_->dispatch(workers, job);

  for (const std::vector<int>& shard_rejects : rejecting) {
    result.rejecting.insert(result.rejecting.end(), shard_rejects.begin(),
                            shard_rejects.end());
  }
  result.all_accept = result.rejecting.empty();
  if (collect) {
    std::size_t ball_nodes = 0;
    for (std::size_t count : shard_ball_nodes) ball_nodes += count;
    store_->publish(fingerprint, radius, std::move(collected), ball_nodes);
  }
  return result;
}

ExecutionEngine& default_engine() {
  // Non-caching: run() is then stateless and re-entrant, and one-shot
  // call sites don't pin the last graph's views in a global.
  // Loops that re-verify one graph under many proofs hold their own
  // caching DirectEngine (see core/checker.cpp).
  static DirectEngine engine{DirectEngineOptions{.cache_views = false}};
  return engine;
}

}  // namespace lcp
