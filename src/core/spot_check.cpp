#include "core/spot_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/delta.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

SpotCheckSpec parse_spotcheck_spec(std::string_view name) {
  // Grammar: "spotcheck", "spotcheck:BUDGET", "spotcheck:BUDGET:INNER"
  // where INNER is any make_engine spelling and may contain colons
  // ("sharded:4:hash").
  SpotCheckSpec spec;
  if (name == "spotcheck") return spec;
  constexpr std::string_view prefix = "spotcheck:";
  if (name.substr(0, prefix.size()) != prefix) {
    throw std::invalid_argument("not a spotcheck engine spec: " +
                                std::string(name));
  }
  std::string_view rest = name.substr(prefix.size());
  const std::size_t colon = rest.find(':');
  const std::string budget_text(
      colon == std::string_view::npos ? rest : rest.substr(0, colon));
  if (budget_text.empty()) {
    throw std::invalid_argument("bad spot-check budget in: " +
                                std::string(name));
  }
  char* end = nullptr;
  const double budget = std::strtod(budget_text.c_str(), &end);
  if (end == budget_text.c_str() || *end != '\0' || !(budget >= 0.0) ||
      budget > 1.0) {
    throw std::invalid_argument("spot-check budget must be in [0, 1]: " +
                                std::string(name));
  }
  spec.options.budget = budget;
  if (colon != std::string_view::npos) {
    std::string_view inner = rest.substr(colon + 1);
    if (inner.empty()) {
      throw std::invalid_argument("empty inner engine in: " +
                                  std::string(name));
    }
    if (inner == "spotcheck" || inner.rfind("spotcheck:", 0) == 0) {
      throw std::invalid_argument(
          "spot-check cannot wrap another spot-check: " + std::string(name));
    }
    spec.inner = std::string(inner);
  }
  return spec;
}

SpotCheckEngine::SpotCheckEngine(std::unique_ptr<ExecutionEngine> inner,
                                 SpotCheckOptions options)
    : inner_(std::move(inner)), options_(options) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("SpotCheckEngine: null inner engine");
  }
  if (!(options_.budget >= 0.0) || options_.budget > 1.0) {
    throw std::invalid_argument(
        "SpotCheckEngine: budget must be in [0, 1]");
  }
  // A zero weight would read as "not pooled" in the sum tree.
  for (const double w : {options_.reextract_weight, options_.repair_weight,
                         options_.flip_weight}) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument(
          "SpotCheckEngine: weight multipliers must be positive and finite");
    }
  }
  rng_.state = options_.seed;
}

SpotCheckEngine::~SpotCheckEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

bool SpotCheckEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  inner_->attach_tracker(tracker);
  // New clock, new pool: outstanding entries describe the old log.
  clear_pool();
  baseline_valid_ = false;
  consumed_generation_ = tracker != nullptr ? tracker->generation() : 0;
  refresh_stats_bounds();
  return true;
}

void SpotCheckEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  inner_->attach_telemetry(telemetry);
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  const auto stat = [this](std::uint64_t Stats::*field) {
    return [this, field] { return static_cast<double>(stats_.*field); };
  };
  registry.derived("engine.spotcheck.exact_runs", stat(&Stats::exact_runs),
                   this);
  registry.derived("engine.spotcheck.sampled_runs",
                   stat(&Stats::sampled_runs), this);
  registry.derived("engine.spotcheck.balls_sampled",
                   stat(&Stats::balls_sampled), this);
  registry.derived("engine.spotcheck.balls_skipped",
                   stat(&Stats::balls_skipped), this);
  registry.derived("engine.spotcheck.escalations",
                   stat(&Stats::escalations), this);
  registry.derived("engine.spotcheck.audits", stat(&Stats::audits), this);
  registry.derived(
      "engine.spotcheck.pool_size",
      [this] { return static_cast<double>(stats_.pool_size); }, this);
  registry.derived(
      "engine.spotcheck.miss_bound", [this] { return stats_.miss_bound; },
      this);
  registry.derived(
      "engine.spotcheck.budget", [this] { return options_.budget; }, this);
}

void SpotCheckEngine::attach_journal(obs::Journal* journal) {
  journal_ = journal;
  inner_->attach_journal(journal);
}

void SpotCheckEngine::note_repair(const std::vector<int>& touched) {
  for (int v : touched) {
    if (v < 0) continue;
    const std::size_t vi = static_cast<std::size_t>(v);
    if (repair_mark_.size() <= vi) repair_mark_.resize(vi + 1, 0);
    if (repair_mark_[vi] == repair_epoch_) continue;
    repair_mark_[vi] = repair_epoch_;
    repair_list_.push_back(v);
  }
}

void SpotCheckEngine::reserve_nodes(std::size_t n) {
  if (mark_.size() < n) {
    mark_.resize(n, 0);
    fresh_slot_.resize(n, 0);
    bfs_depth_.resize(n, 0);
    bfs_mark_.resize(n, 0);
    cohort_of_.resize(n, 0);
  }
  if (n <= leaves_ && leaves_ > 0) return;
  // Node growth: widen the tree to the next power of two and rebuild its
  // internal sums from the (unchanged) leaves.  Each old internal node
  // pairs the same leaves as before, so the sums — and hence the draws —
  // are bit-identical to a tree built at the larger size from the start.
  std::size_t leaves = 1;
  while (leaves < n) leaves *= 2;
  std::vector<double> tree(2 * leaves, 0.0);
  for (std::size_t c = 0; c < leaves_; ++c) {
    tree[leaves + c] = tree_[leaves_ + c];
  }
  for (std::size_t i = leaves - 1; i >= 1; --i) {
    tree[i] = tree[2 * i] + tree[2 * i + 1];
  }
  tree_ = std::move(tree);
  leaves_ = leaves;
}

void SpotCheckEngine::set_leaf(int c, double w) {
  std::size_t i = leaves_ + static_cast<std::size_t>(c);
  tree_[i] = w;
  for (i /= 2; i >= 1; i /= 2) tree_[i] = tree_[2 * i] + tree_[2 * i + 1];
}

void SpotCheckEngine::place(int c, double w, int cohort) {
  if (pooled(c)) remove(c);
  ++pool_count_;
  set_leaf(c, w);
  ++weight_count_[w];
  cohort_of_[static_cast<std::size_t>(c)] = cohort;
  ++cohorts_[static_cast<std::size_t>(cohort)].members;
}

void SpotCheckEngine::remove(int c) {
  const std::size_t ci = static_cast<std::size_t>(c);
  const auto it = weight_count_.find(tree_[leaves_ + ci]);
  if (--it->second == 0) weight_count_.erase(it);
  --cohorts_[static_cast<std::size_t>(cohort_of_[ci])].members;
  --pool_count_;
  set_leaf(c, 0.0);
}

void SpotCheckEngine::clear_pool() {
  if (pool_count_ > 0) {
    // Only non-empty subtrees hold non-zero sums, so this touches the
    // pooled leaves and their ancestors and nothing else.
    bfs_queue_.assign(1, 1);
    while (!bfs_queue_.empty()) {
      const std::size_t i = static_cast<std::size_t>(bfs_queue_.back());
      bfs_queue_.pop_back();
      tree_[i] = 0.0;
      if (i >= leaves_) continue;
      if (tree_[2 * i] != 0.0) bfs_queue_.push_back(static_cast<int>(2 * i));
      if (tree_[2 * i + 1] != 0.0) {
        bfs_queue_.push_back(static_cast<int>(2 * i + 1));
      }
    }
  }
  pool_count_ = 0;
  weight_count_.clear();
  cohorts_.clear();
  live_cohorts_.clear();
  free_cohorts_.clear();
}

int SpotCheckEngine::new_cohort(double miss, double weight) {
  int id;
  if (!free_cohorts_.empty()) {
    id = free_cohorts_.back();
    free_cohorts_.pop_back();
  } else {
    id = static_cast<int>(cohorts_.size());
    cohorts_.emplace_back();
  }
  cohorts_[static_cast<std::size_t>(id)] = Cohort{miss, weight, 0};
  live_cohorts_.push_back(id);
  return id;
}

int SpotCheckEngine::descend(double u) const {
  // Left when u falls in the left span — or when the right subtree is
  // empty, so rounding in u or in the sums can never reach a zero leaf.
  // Every node entered has a positive sum: the root because the pool is
  // non-empty, a left child because u < its sum or its sibling is empty,
  // a right child by the test itself.
  std::size_t i = 1;
  while (i < leaves_) {
    const double left = tree_[2 * i];
    if (u < left || tree_[2 * i + 1] == 0.0) {
      i = 2 * i;
    } else {
      u -= left;
      i = 2 * i + 1;
    }
  }
  return static_cast<int>(i - leaves_);
}

void SpotCheckEngine::refresh_stats_bounds() {
  stats_.pool_size = pool_count_;
  double worst = 0.0;
  std::size_t out = 0;
  for (const int id : live_cohorts_) {
    const Cohort& cohort = cohorts_[static_cast<std::size_t>(id)];
    if (cohort.members == 0) {
      free_cohorts_.push_back(id);
      continue;
    }
    worst = std::max(worst, cohort.miss);
    live_cohorts_[out++] = id;
  }
  live_cohorts_.resize(out);
  stats_.miss_bound = worst;
}

RunResult SpotCheckEngine::exact_run(const Graph& g, const Proof& p,
                                     const LocalVerifier& a) {
  ++stats_.exact_runs;
  RunResult result = inner_->run(g, p, a);
  baseline_valid_ = true;
  baseline_graph_ = &g;
  baseline_verifier_ = &a;
  baseline_all_accept_ = result.all_accept;
  baseline_rejecting_ = result.rejecting;
  // Everything outstanding has just been verified exactly.
  clear_pool();
  last_sample_.clear();
  if (tracker_ != nullptr) consumed_generation_ = tracker_->generation();
  if (!result.all_accept) {
    // Remember the implicated neighbourhood: when these centres re-enter
    // the pool after the state heals, they sample with the flip boost.
    ++flip_epoch_;
    if (flip_mark_.size() < static_cast<std::size_t>(g.n())) {
      flip_mark_.resize(static_cast<std::size_t>(g.n()), 0);
    }
    for (int c : result.rejecting) {
      flip_mark_[static_cast<std::size_t>(c)] = flip_epoch_;
    }
  }
  refresh_stats_bounds();
  return result;
}

void SpotCheckEngine::absorb_records(
    const Graph& g, int radius,
    const std::vector<const DirtyRecord*>& records) {
  const std::size_t n = static_cast<std::size_t>(g.n());
  reserve_nodes(n);
  ++mark_epoch_;

  // Newly dirty centres this absorption, with their base weights.  A
  // centre can arrive through several channels; the strongest weight wins.
  fresh_.clear();
  auto touch = [&](int c, double weight) {
    const std::size_t ci = static_cast<std::size_t>(c);
    if (mark_[ci] == mark_epoch_) {
      FreshEntry& e = fresh_[fresh_slot_[ci]];
      e.weight = std::max(e.weight, weight);
      return;
    }
    mark_[ci] = mark_epoch_;
    fresh_slot_[ci] = fresh_.size();
    fresh_.push_back(FreshEntry{c, weight});
  };

  // Label/proof epicentres affect exactly the centres whose current ball
  // contains them; for undirected graphs that set is ball(u, radius) on
  // the current graph.  Structural dirt arrives pre-expanded by the
  // tracker's stepwise BFS (covering pre- and post-states).
  auto expand = [&](int u, double weight) {
    ++bfs_epoch_;
    bfs_queue_.clear();
    bfs_queue_.push_back(u);
    bfs_depth_[static_cast<std::size_t>(u)] = 0;
    bfs_mark_[static_cast<std::size_t>(u)] = bfs_epoch_;
    touch(u, weight);
    for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
      const int v = bfs_queue_[head];
      const int d = bfs_depth_[static_cast<std::size_t>(v)];
      if (d >= radius) continue;
      for (const HalfEdge& h : g.neighbors(v)) {
        if (bfs_mark_[static_cast<std::size_t>(h.to)] == bfs_epoch_) {
          continue;
        }
        bfs_mark_[static_cast<std::size_t>(h.to)] = bfs_epoch_;
        bfs_queue_.push_back(h.to);
        bfs_depth_[static_cast<std::size_t>(h.to)] = d + 1;
        touch(h.to, weight);
      }
    }
  };

  for (const DirtyRecord* record : records) {
    for (int c : record->structural_dirty) {
      if (c >= 0 && static_cast<std::size_t>(c) < n) {
        touch(c, options_.reextract_weight);
      }
    }
    for (int u : record->proof_nodes) {
      if (u >= 0 && static_cast<std::size_t>(u) < n) expand(u, 1.0);
    }
    for (int u : record->relabeled_nodes) {
      if (u >= 0 && static_cast<std::size_t>(u) < n) expand(u, 1.0);
    }
  }

  // History boosts.  The repair boost covers centres already sitting in
  // the pool as well as centres entering it now — note_repair's contract
  // — and is one-shot: the list described the repairs since the last run,
  // so consuming it here retires it even when no fresh dirt arrived.  A
  // sitting centre keeps its miss bound under the new weight, so the
  // boosted members of one cohort move together to one new cohort.  A
  // sitting centre that is also fresh is boosted at the merge below.
  const auto repaired = [&](int c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    return ci < repair_mark_.size() && repair_mark_[ci] == repair_epoch_;
  };
  for (const int c : repair_list_) {
    if (static_cast<std::size_t>(c) >= n) continue;
    const std::size_t ci = static_cast<std::size_t>(c);
    if (mark_[ci] == mark_epoch_) {
      fresh_[fresh_slot_[ci]].weight *= options_.repair_weight;
    } else if (pooled(c)) {
      const std::size_t from = static_cast<std::size_t>(cohort_of_[ci]);
      if (boosted_cohort_.size() < cohorts_.size()) {
        boosted_cohort_.resize(cohorts_.size(), {0, 0});
      }
      if (boosted_cohort_[from].first != mark_epoch_) {
        const Cohort& old = cohorts_[from];
        boosted_cohort_[from] = {
            mark_epoch_,
            new_cohort(old.miss, old.weight * options_.repair_weight)};
      }
      const int to = boosted_cohort_[from].second;
      place(c, cohorts_[static_cast<std::size_t>(to)].weight, to);
    }
  }

  // Merge.  A re-dirtied centre keeps one entry: strongest weight, miss
  // reset to 1 — it is dirty again *now*, and the bound must cover a
  // tamper planted by the newest batch.
  fresh_cohorts_.clear();
  for (FreshEntry& e : fresh_) {
    const std::size_t c = static_cast<std::size_t>(e.center);
    if (flip_epoch_ != 0 && c < flip_mark_.size() &&
        flip_mark_[c] == flip_epoch_) {
      e.weight *= options_.flip_weight;
    }
    double weight = e.weight;
    if (pooled(e.center)) {
      double sitting = tree_[leaves_ + c];
      if (repaired(e.center)) sitting *= options_.repair_weight;
      weight = std::max(weight, sitting);
    }
    int cohort = -1;
    for (const auto& [w, id] : fresh_cohorts_) {
      if (w == weight) {
        cohort = id;
        break;
      }
    }
    if (cohort < 0) {
      cohort = new_cohort(1.0, weight);
      fresh_cohorts_.emplace_back(weight, cohort);
    }
    place(e.center, weight, cohort);
  }

  if (!repair_list_.empty()) {
    repair_list_.clear();
    ++repair_epoch_;
  }
}

RunResult SpotCheckEngine::run(const Graph& g, const Proof& p,
                               const LocalVerifier& a) {
  // Exact paths first: no sampling without a budget, a tracker bound to
  // this exact pair, a radius the tracker can serve, and an accepting
  // exact baseline to be incremental against.
  if (options_.budget <= 0.0) {
    // Degenerate tier: a pure pass-through, bit-identical to the inner
    // engine (no attribution rewrite, no baseline bookkeeping beyond the
    // exact counters).
    ++stats_.exact_runs;
    return inner_->run(g, p, a);
  }
  const bool audit = audit_requested_;
  audit_requested_ = false;
  // An operator audit is honoured by whichever exact path this run takes
  // — the dedicated branch below or a cold-start / tracker-mismatch /
  // stale-baseline fallback — and the accounting (Stats::audits,
  // escalations, the journal event) must not depend on which one.
  const auto honour_audit = [&] {
    if (!audit) return;
    ++stats_.audits;
    ++stats_.escalations;
    obs::maybe_emit(
        journal_, obs::JournalEventKind::kSpotEscalate, "engine.spotcheck",
        {{"audit", 1},
         {"pool", static_cast<std::int64_t>(pool_count_)},
         {"generation",
          static_cast<std::int64_t>(
              tracker_ != nullptr ? tracker_->generation() : 0)}});
  };
  if (tracker_ == nullptr || &tracker_->graph() != &g ||
      &tracker_->proof() != &p || a.radius() > tracker_->horizon()) {
    honour_audit();
    RunResult result = exact_run(g, p, a);
    attribution_.finish(g, a, &result);
    return result;
  }
  const auto records = tracker_->records_since(consumed_generation_);
  if (!records.has_value() || !baseline_valid_ || baseline_graph_ != &g ||
      baseline_verifier_ != &a) {
    honour_audit();
    RunResult result = exact_run(g, p, a);
    attribution_.finish(g, a, &result);
    return result;
  }
  if (audit || !baseline_all_accept_) {
    // Operator audit, or the state is already rejecting: statistical
    // acceptance has nothing to offer until the verdict heals.
    honour_audit();
    RunResult result = exact_run(g, p, a);
    attribution_.finish(g, a, &result);
    return result;
  }

  absorb_records(g, a.radius(), *records);
  consumed_generation_ = tracker_->generation();
  last_sample_.clear();

  if (pool_count_ == 0) {
    ++stats_.unchanged_runs;
    refresh_stats_bounds();
    RunResult result;
    result.all_accept = true;
    result.evaluated = 0;
    attribution_.finish(g, a, &result);
    return result;
  }

  // Sample size from the budget; budget == 1 verifies the whole pool.
  const std::size_t pool_size = pool_count_;
  std::size_t k = options_.budget >= 1.0
                      ? pool_size
                      : static_cast<std::size_t>(std::ceil(
                            options_.budget *
                            static_cast<double>(pool_size)));
  k = std::max<std::size_t>(k, 1);
  k = std::min(k, pool_size);

  // The decay below needs the pool as it was before the draws.
  const double total_weight = tree_[1];
  const double min_weight = weight_count_.begin()->first;
  const double max_weight = weight_count_.rbegin()->first;

  // k successive weighted draws without replacement: each takes one rng
  // value, descends the sum tree to a still-pooled centre, and removes
  // it, so the stream advances identically across inner backends.
  last_sample_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const int c = descend(rng_.next_unit() * tree_[1]);
    remove(c);
    last_sample_.push_back(c);
  }
  std::sort(last_sample_.begin(), last_sample_.end());

  // Verify the sampled balls exactly against the current state.
  sample_out_.resize(k);
  lane_.verify(
      g, p, a, k, [this](std::size_t i) { return last_sample_[i]; },
      sample_out_.data());
  std::vector<int> sampled_rejecting;
  for (std::size_t i = 0; i < k; ++i) {
    if (!sample_out_[i]) sampled_rejecting.push_back(last_sample_[i]);
  }
  ++stats_.sampled_runs;
  stats_.balls_sampled += static_cast<std::uint64_t>(k);
  stats_.balls_skipped += static_cast<std::uint64_t>(pool_size - k);
  obs::maybe_emit(
      journal_, obs::JournalEventKind::kSpotSample, "engine.spotcheck",
      {{"pool", static_cast<std::int64_t>(pool_size)},
       {"sampled", static_cast<std::int64_t>(k)},
       {"rejected", static_cast<std::int64_t>(sampled_rejecting.size())},
       {"generation", static_cast<std::int64_t>(tracker_->generation())}});

  if (!sampled_rejecting.empty()) {
    // Soundness escalation: the REJECT the caller sees comes from a full
    // dirty sweep on the exact inner engine, never from the sample alone.
    ++stats_.escalations;
    obs::maybe_emit(
        journal_, obs::JournalEventKind::kSpotEscalate, "engine.spotcheck",
        {{"audit", 0},
         {"pool", static_cast<std::int64_t>(pool_size)},
         {"center", sampled_rejecting.front()},
         {"generation",
          static_cast<std::int64_t>(tracker_->generation())}});
    RunResult result = exact_run(g, p, a);
    attribution_.finish(g, a, &result);
    return result;
  }

  // All sampled balls accept and have left the pool.  Decay each
  // survivor's miss bound by a provable lower bound on its inclusion
  // probability this run.  On a uniformly weighted pool inclusion is
  // exactly k/|pool|.  On a boosted pool an unboosted entry's inclusion
  // probability can fall BELOW k/|pool| (the boosted entries absorb the
  // budget), so the uniform factor would understate the miss; instead
  // use (1 - w_i/W)^k, sound because each of the k draws picks a
  // still-unsampled entry with conditional probability
  // w_i/W_remaining >= w_i/W.  Inclusion probabilities are monotone in
  // weight and sum to k, so a maximum-weight entry's is >= k/|pool|: its
  // factor is additionally capped by the uniform one.  The factor
  // depends on the weight alone, so it is applied once per cohort.
  const bool uniform_pool = min_weight == max_weight;
  const double uniform_factor =
      1.0 - static_cast<double>(k) / static_cast<double>(pool_size);
  double factor_weight = 0.0;  // memo: cohorts mostly share few weights
  double weighted_factor = 1.0;
  for (const int id : live_cohorts_) {
    Cohort& cohort = cohorts_[static_cast<std::size_t>(id)];
    if (cohort.members == 0) continue;
    if (uniform_pool) {
      cohort.miss *= uniform_factor;
      continue;
    }
    if (cohort.weight != factor_weight) {
      factor_weight = cohort.weight;
      weighted_factor = std::pow(1.0 - cohort.weight / total_weight,
                                 static_cast<double>(k));
      if (cohort.weight == max_weight) {
        weighted_factor = std::min(weighted_factor, uniform_factor);
      }
    }
    cohort.miss *= weighted_factor;
  }
  refresh_stats_bounds();

  RunResult result;
  result.all_accept = true;
  result.evaluated = static_cast<std::uint64_t>(k);
  attribution_.finish(g, a, &result);
  return result;
}

}  // namespace lcp
