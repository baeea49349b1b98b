#include "core/incremental.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

IncrementalEngine::~IncrementalEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void IncrementalEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  const auto stat = [this](std::uint64_t Stats::*field) {
    return [this, field] { return static_cast<double>(stats_.*field); };
  };
  registry.derived("engine.incremental.full_sweeps",
                   stat(&Stats::full_sweeps), this);
  registry.derived("engine.incremental.incremental_runs",
                   stat(&Stats::incremental_runs), this);
  registry.derived("engine.incremental.unchanged_runs",
                   stat(&Stats::unchanged_runs), this);
  registry.derived("engine.incremental.nodes_reverified",
                   stat(&Stats::nodes_reverified), this);
  registry.derived("engine.incremental.fallbacks", stat(&Stats::fallbacks),
                   this);
  registry.derived("engine.incremental.reextractions",
                   stat(&Stats::reextractions), this);
  registry.derived("engine.incremental.sharded_rounds",
                   stat(&Stats::sharded_rounds), this);
  if (pool_ != nullptr) {
    pool_->register_metrics(registry, "pool.incremental", this);
  }
}

bool IncrementalEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  invalidate();
  if (tracker_ != nullptr) consumed_generation_ = tracker_->generation();
  return true;
}

void IncrementalEngine::invalidate() {
  valid_ = false;
  from_tracker_ = false;
  cached_verifier_ = nullptr;
  cached_radius_ = -1;
  cached_graph_fp_ = 0;
  cached_graph_fp_valid_ = false;
  verdicts_.clear();
  last_proofs_.clear();
}

RunResult IncrementalEngine::result_from_verdicts() const {
  RunResult result;
  for (int v = 0; v < static_cast<int>(verdicts_.size()); ++v) {
    if (!verdicts_[static_cast<std::size_t>(v)]) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

RunResult IncrementalEngine::run(const Graph& g, const Proof& p,
                                 const LocalVerifier& a) {
  RunResult result = run_impl(g, p, a);
  // Attribution diffs whole rejecting lists, so full sweeps and fallbacks
  // keep per-centre flips too.
  attribution_.finish(g, a, &result);
  return result;
}

RunResult IncrementalEngine::run_impl(const Graph& g, const Proof& p,
                                      const LocalVerifier& a) {
  // Only the delta paths repopulate this; any other outcome (full sweep,
  // unchanged run, fallback) leaves the stable dirty-set surface empty.
  last_dirty_centers_.clear();
  if (tracker_ != nullptr && &tracker_->graph() == &g &&
      &tracker_->proof() == &p && tracker_->horizon() >= a.radius()) {
    return run_tracker_path(g, p, a);
  }
  return run_content_path(g, p, a);
}

RunResult IncrementalEngine::full_sweep(const Graph& g, const Proof& p,
                                        const LocalVerifier& a,
                                        std::uint64_t graph_fp) {
  const obs::TraceRecorder::Span span =
      obs::maybe_span(telemetry_, "incremental.full_sweep");
  ++stats_.full_sweeps;
  const int n = g.n();
  valid_ = false;
  verdicts_.assign(static_cast<std::size_t>(n), 1);
  lanes_[0].verify_range(g, p, a, 0, n, verdicts_.data());
  valid_ = true;
  cached_verifier_ = &a;
  cached_radius_ = a.radius();
  cached_graph_fp_ = graph_fp;
  cached_graph_fp_valid_ = true;
  RunResult result = result_from_verdicts();
  result.evaluated = static_cast<std::uint64_t>(n);
  return result;
}

void IncrementalEngine::mark(int c) {
  std::uint64_t& seen = dirty_epoch_[static_cast<std::size_t>(c)];
  if (seen == epoch_) return;
  seen = epoch_;
  dirty_.push_back(c);
}

void IncrementalEngine::mark_ball(const Graph& g, int u, int radius) {
  for (int c : lanes_[0].ball_members(g, u, radius)) mark(c);
}

void IncrementalEngine::reverify(const Graph& g, const Proof& p,
                                 const LocalVerifier& a) {
  const obs::TraceRecorder::Span span =
      obs::maybe_span(telemetry_, "incremental.verify");
  const std::size_t count = dirty_.size();
  out_.resize(count);
  const auto centre_at = [this](std::size_t i) { return dirty_[i]; };
  const int workers = options_.shard_threads;
  if (workers > 1 && count >= options_.shard_min_centers && count >= 2) {
    if (pool_ == nullptr || pool_->size() < workers) {
      pool_ = std::make_unique<WorkerPool>(workers);
      if (telemetry_ != nullptr) {
        // Lazy registration at pool creation; on growth, derived()
        // replaces the same-name lane callbacks with the new pool's.
        pool_->register_metrics(telemetry_->metrics, "pool.incremental",
                                this);
      }
    }
    const int active =
        std::min({workers, pool_->size(), static_cast<int>(count)});
    if (static_cast<int>(lanes_.size()) < active) {
      lanes_.resize(static_cast<std::size_t>(active));
    }
    ++stats_.sharded_rounds;
    obs::maybe_emit(journal_, obs::JournalEventKind::kLaneDispatch,
                    "engine.incremental",
                    {{"lanes", active},
                     {"centers", static_cast<std::int64_t>(count)}});
    const std::function<void(int)> job = [&](int w) {
      const std::size_t lo = count * static_cast<std::size_t>(w) /
                             static_cast<std::size_t>(active);
      const std::size_t hi = count * (static_cast<std::size_t>(w) + 1) /
                             static_cast<std::size_t>(active);
      lanes_[static_cast<std::size_t>(w)].verify(
          g, p, a, hi - lo, [&](std::size_t i) { return centre_at(lo + i); },
          out_.data() + lo);
    };
    pool_->dispatch(active, job);
  } else {
    lanes_[0].verify(g, p, a, count, centre_at, out_.data());
  }
  for (std::size_t i = 0; i < count; ++i) {
    verdicts_[static_cast<std::size_t>(dirty_[i])] = out_[i];
  }
  stats_.nodes_reverified += count;
  stats_.reextractions += count;
}

RunResult IncrementalEngine::run_tracker_path(const Graph& g, const Proof& p,
                                              const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();
  // The content diff's baseline does not follow tracker runs.
  last_proofs_.clear();

  auto rebuild = [&] {
    RunResult result = full_sweep(g, p, a, graph_fingerprint(g));
    from_tracker_ = true;
    consumed_generation_ = tracker_->generation();
    return result;
  };

  // from_tracker_ guards against an interleaved content-path run on a
  // foreign graph: those verdicts belong to the other graph even when n
  // and radius coincide.
  if (!valid_ || !from_tracker_ || radius != cached_radius_ ||
      &a != cached_verifier_) {
    return rebuild();
  }
  const auto records = tracker_->records_since(consumed_generation_);
  if (!records.has_value()) {
    // The dirty log was trimmed past our position.
    ++stats_.fallbacks;
    return rebuild();
  }
  if (options_.verify_state &&
      DeltaTracker::state_fingerprint_of(g, p) !=
          tracker_->state_fingerprint()) {
    // Out-of-band mutation: the tracker no longer describes the state.
    ++stats_.fallbacks;
    tracker_->resync();
    return rebuild();
  }
  // Every added node sits in its record's structural_dirty set, so the
  // scan below verifies it; any size drift the records cannot account for
  // means the verdicts belong to another state.
  std::size_t added = 0;
  for (const DirtyRecord* record : *records) {
    added += record->added_nodes.size();
  }
  if (verdicts_.size() + added != static_cast<std::size_t>(n)) {
    ++stats_.fallbacks;
    return rebuild();
  }
  verdicts_.resize(static_cast<std::size_t>(n), 1);
  if (records->empty()) {
    ++stats_.unchanged_runs;
    return result_from_verdicts();
  }

  // Structural centres come from the tracker's stepwise BFS; label and
  // proof epicentres dirty the radius-r BFS around them on the final
  // graph, which by ball symmetry is every centre whose final ball holds
  // them.  (A centre whose ball changed shape is structural already.)
  obs::TraceRecorder::Span dirty_scan_span =
      obs::maybe_span(telemetry_, "incremental.dirty_scan");
  dirty_epoch_.resize(static_cast<std::size_t>(n), 0);
  ++epoch_;
  dirty_.clear();
  bool graph_changed = false;
  for (const DirtyRecord* record : *records) {
    for (int c : record->structural_dirty) mark(c);
    for (int u : record->relabeled_nodes) mark_ball(g, u, radius);
    for (int u : record->proof_nodes) mark_ball(g, u, radius);
    graph_changed = graph_changed || !record->deltas.empty();
  }
  std::sort(dirty_.begin(), dirty_.end());
  dirty_scan_span.close();

  reverify(g, p, a);
  if (graph_changed) cached_graph_fp_valid_ = false;
  consumed_generation_ = tracker_->generation();
  last_dirty_centers_ = dirty_;  // sorted above: stable ordering
  ++stats_.incremental_runs;
  RunResult result = result_from_verdicts();
  result.evaluated = static_cast<std::uint64_t>(dirty_.size());
  return result;
}

RunResult IncrementalEngine::run_content_path(const Graph& g, const Proof& p,
                                              const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();
  const std::uint64_t fp = graph_fingerprint(g);

  if (!valid_ || !cached_graph_fp_valid_ || fp != cached_graph_fp_ ||
      radius != cached_radius_ || &a != cached_verifier_ ||
      static_cast<int>(last_proofs_.size()) != n ||
      static_cast<int>(p.labels.size()) != n) {
    RunResult result = full_sweep(g, p, a, fp);
    last_proofs_ = p.labels;
    from_tracker_ = false;
    return result;
  }

  // Exact proof diff against the retained copy.  The copy is only
  // committed after reverify() succeeds: a throwing verifier must not
  // leave future diffs blind to this mutation.
  dirty_epoch_.resize(static_cast<std::size_t>(n), 0);
  ++epoch_;
  dirty_.clear();
  std::vector<int> changed_nodes;
  for (int v = 0; v < n; ++v) {
    if (p.labels[static_cast<std::size_t>(v)] ==
        last_proofs_[static_cast<std::size_t>(v)]) {
      continue;
    }
    changed_nodes.push_back(v);
    mark_ball(g, v, radius);
  }
  if (changed_nodes.empty()) {
    ++stats_.unchanged_runs;
    return result_from_verdicts();
  }
  std::sort(dirty_.begin(), dirty_.end());
  reverify(g, p, a);
  for (int v : changed_nodes) {
    last_proofs_[static_cast<std::size_t>(v)] =
        p.labels[static_cast<std::size_t>(v)];
  }
  // The verdicts now reflect this (possibly foreign) proof, not the
  // tracker's bound pair — identical-content graphs share a fingerprint,
  // so the tracker path must resweep rather than trust them.
  from_tracker_ = false;
  last_dirty_centers_ = dirty_;  // sorted above: stable ordering
  ++stats_.incremental_runs;
  RunResult result = result_from_verdicts();
  result.evaluated = static_cast<std::uint64_t>(dirty_.size());
  return result;
}

}  // namespace lcp
