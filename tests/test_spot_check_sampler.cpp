// SpotCheckEngine's sampler and error accounting, checked against an
// independent model.
//
//   * Accounting oracle.  EagerPool below is the straightforward
//     per-entry pool: a vector sorted by centre, merged with each batch's
//     fresh dirt, every survivor's miss bound decayed one by one.  Driven
//     by the engine's own last_sample() over seeded schedules (structural
//     dirt, note_repair on sitting and fresh centres, a flip boost after
//     an exact REJECT that then heals, audits, add_node growth; budgets
//     0.01, 0.1, 0.3 and 1), it must agree with the engine's cohort
//     bookkeeping on pool_size exactly and on miss_bound to the last few
//     bits after every run.
//   * Inclusion probabilities.  A hand-enumerated weighted pool with
//     k = 2: each centre's seeded sampling frequency sits within a
//     Hoeffding tolerance of its exact probability under successive
//     weighted draws without replacement.
//   * Rounding fuzz.  Thousands of runs whose weights are powers of 1.5
//     spanning many orders of magnitude: every sample is sorted,
//     duplicate-free, of size k, and drawn only from pooled centres.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/spot_check.hpp"
#include "graph/generators.hpp"

namespace lcp {
namespace {

/// The per-entry pool the engine's cohorts must reproduce.
class EagerPool {
 public:
  explicit EagerPool(const SpotCheckOptions& options) : options_(options) {}

  void note_repair(const std::vector<int>& touched) {
    for (int v : touched) {
      if (v >= 0) repair_.insert(v);
    }
  }

  /// Folds one run's dirty records in: label/proof epicentres expand to
  /// radius-r balls on the current graph, structural dirt arrives
  /// expanded.  Repair boosts reach sitting and fresh centres; the flip
  /// boost reaches fresh ones; a re-dirtied centre takes the stronger
  /// weight and restarts its miss bound at 1.
  void absorb(const Graph& g, int radius,
              const std::vector<const DirtyRecord*>& records) {
    std::map<int, double> fresh;
    const auto touch = [&](int c, double w) {
      auto [it, inserted] = fresh.emplace(c, w);
      if (!inserted) it->second = std::max(it->second, w);
    };
    const auto expand = [&](int u) {
      std::map<int, int> depth{{u, 0}};
      std::vector<int> queue{u};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const int v = queue[head];
        if (depth[v] >= radius) continue;
        for (const HalfEdge& h : g.neighbors(v)) {
          if (depth.emplace(h.to, depth[v] + 1).second) queue.push_back(h.to);
        }
      }
      for (const int v : queue) touch(v, 1.0);
    };
    for (const DirtyRecord* record : records) {
      for (int c : record->structural_dirty) {
        if (c < g.n()) touch(c, options_.reextract_weight);
      }
      for (int u : record->proof_nodes) {
        if (u < g.n()) expand(u);
      }
      for (int u : record->relabeled_nodes) {
        if (u < g.n()) expand(u);
      }
    }
    for (Entry& e : pool_) {
      if (repair_.count(e.center) != 0) e.weight *= options_.repair_weight;
    }
    for (auto& [c, w] : fresh) {
      if (repair_.count(c) != 0) w *= options_.repair_weight;
      if (flip_.count(c) != 0) w *= options_.flip_weight;
    }
    repair_.clear();

    std::vector<Entry> merged;
    auto it = pool_.begin();
    for (const auto& [c, w] : fresh) {
      while (it != pool_.end() && it->center < c) merged.push_back(*it++);
      double weight = w;
      if (it != pool_.end() && it->center == c) {
        weight = std::max(weight, it->weight);
        ++it;
      }
      merged.push_back(Entry{c, weight, 1.0});
    }
    merged.insert(merged.end(), it, pool_.end());
    pool_ = std::move(merged);
  }

  /// An exact run settled the pool; a rejecting one re-aims the flip boost.
  void settle_exact(const RunResult& result) {
    pool_.clear();
    if (!result.all_accept) {
      flip_ = std::set<int>(result.rejecting.begin(), result.rejecting.end());
    }
  }

  std::size_t sample_size(double budget) const {
    const std::size_t n = pool_.size();
    std::size_t k = budget >= 1.0
                        ? n
                        : static_cast<std::size_t>(
                              std::ceil(budget * static_cast<double>(n)));
    return std::min(std::max<std::size_t>(k, 1), n);
  }

  bool contains(int c) const {
    return std::binary_search(
        pool_.begin(), pool_.end(), Entry{c, 0.0, 0.0},
        [](const Entry& x, const Entry& y) { return x.center < y.center; });
  }

  /// The sampled entries leave; every survivor's bound decays by its own
  /// exclusion factor: 1 - k/|pool| on a uniform pool, else
  /// (1 - w/W)^k, capped at 1 - k/|pool| for maximum-weight entries.
  void settle_sample(const std::vector<int>& sample) {
    const std::size_t n = pool_.size();
    const std::size_t k = sample.size();
    double total = 0.0;
    double lo = pool_.front().weight;
    double hi = pool_.front().weight;
    for (const Entry& e : pool_) {
      total += e.weight;
      lo = std::min(lo, e.weight);
      hi = std::max(hi, e.weight);
    }
    const double uniform =
        1.0 - static_cast<double>(k) / static_cast<double>(n);
    std::vector<Entry> kept;
    for (Entry e : pool_) {
      if (std::binary_search(sample.begin(), sample.end(), e.center)) {
        continue;
      }
      double factor = uniform;
      if (lo != hi) {
        factor = std::pow(1.0 - e.weight / total, static_cast<double>(k));
        if (e.weight == hi) factor = std::min(factor, uniform);
      }
      e.miss *= factor;
      kept.push_back(e);
    }
    pool_ = std::move(kept);
  }

  std::size_t size() const { return pool_.size(); }
  double miss_bound() const {
    double worst = 0.0;
    for (const Entry& e : pool_) worst = std::max(worst, e.miss);
    return worst;
  }
  /// Largest over smallest pooled weight (1 on an empty pool).
  double weight_span() const {
    double lo = 1.0;
    double hi = 1.0;
    for (const Entry& e : pool_) {
      lo = std::min(lo, e.weight);
      hi = std::max(hi, e.weight);
    }
    return hi / lo;
  }
  std::vector<int> centres() const {
    std::vector<int> out;
    for (const Entry& e : pool_) out.push_back(e.center);
    return out;
  }

 private:
  struct Entry {
    int center = 0;
    double weight = 1.0;
    double miss = 1.0;
  };
  SpotCheckOptions options_;
  std::vector<Entry> pool_;  // ascending by centre
  std::set<int> repair_;
  std::set<int> flip_;
};

/// Accepts unless the centre's proof label is exactly three bits long.
std::unique_ptr<LocalVerifier> length_verifier(int radius) {
  return std::make_unique<LambdaVerifier>(radius, [](const View& v) {
    return v.proof_of(v.center).size() != 3;
  });
}

/// An engine and the eager model fed the same runs.
struct Rig {
  Rig(Graph graph, int radius, SpotCheckOptions options)
      : g(std::move(graph)),
        p(Proof::empty(g.n())),
        verifier(length_verifier(radius)),
        engine(make_engine("direct"), options),
        ref(options),
        budget(options.budget) {
    tracker = std::make_unique<DeltaTracker>(g, p, radius);
    engine.attach_tracker(tracker.get());
    seen = tracker->generation();
  }

  void note_repair(const std::vector<int>& touched) {
    engine.note_repair(touched);
    ref.note_repair(touched);
  }

  /// One engine run, mirrored into the model; returns the verdict.
  /// `exact_bounds` compares miss_bound to the last few bits (the
  /// default multipliers keep every weight sum exact); otherwise to a
  /// relative 1e-9.
  RunResult run(bool exact_bounds = true) {
    const auto records = tracker->records_since(seen);
    const SpotCheckEngine::Stats before = engine.stats();
    const RunResult result = engine.run(g, p, *verifier);
    const SpotCheckEngine::Stats& after = engine.stats();
    seen = tracker->generation();
    const bool sampled = after.sampled_runs > before.sampled_runs;
    if (sampled || after.unchanged_runs > before.unchanged_runs) {
      EXPECT_TRUE(records.has_value());
      if (records.has_value()) ref.absorb(g, verifier->radius(), *records);
    }
    if (after.exact_runs > before.exact_runs) {
      ref.settle_exact(result);
    } else if (sampled) {
      const std::vector<int>& sample = engine.last_sample();
      EXPECT_EQ(sample.size(), ref.sample_size(budget));
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()),
                sample.end());
      for (int c : sample) EXPECT_TRUE(ref.contains(c)) << "centre " << c;
      ++sampled_runs;
      ref.settle_sample(sample);
    }
    EXPECT_EQ(after.pool_size, ref.size());
    if (exact_bounds) {
      EXPECT_DOUBLE_EQ(after.miss_bound, ref.miss_bound());
    } else {
      EXPECT_NEAR(after.miss_bound, ref.miss_bound(),
                  1e-9 * ref.miss_bound());
    }
    return result;
  }

  Graph g;
  Proof p;
  std::unique_ptr<LocalVerifier> verifier;
  std::unique_ptr<DeltaTracker> tracker;
  SpotCheckEngine engine;
  EagerPool ref;
  double budget;
  std::uint64_t seen = 0;
  int sampled_runs = 0;
};

BitString bits_of_length(std::mt19937& rng, int length) {
  BitString bits;
  for (int b = 0; b < length; ++b) bits.append_bit(rng() % 2 != 0);
  return bits;
}

/// What one oracle schedule exercised, so a schedule that silently stops
/// reaching a branch fails instead of passing vacuously.
struct Coverage {
  int sampled = 0;
  int structural = 0;
  int grown = 0;
  int audits = 0;
  int repairs_sitting = 0;
  int repairs_fresh = 0;
  int flips_healed = 0;
};

void run_oracle_schedule(double budget, int radius, std::uint32_t seed,
                         Coverage* coverage) {
  std::mt19937 rng(seed);
  Rig rig(gen::random_sparse_connected(90, 30, seed), radius,
          {.budget = budget, .seed = 0x5eed0000ULL + seed});
  ASSERT_TRUE(rig.run().all_accept);  // cold start: exact baseline
  NodeId next_id = 1'000'000;

  for (int step = 0; step < 120; ++step) {
    const Graph& g = rig.g;
    const auto node = [&] {
      return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
    };
    MutationBatch batch;
    std::vector<int> dirtied;
    std::set<std::pair<int, int>> edges_touched;  // one edge op per pair
    const auto fresh_pair = [&](int a, int b) {
      return edges_touched.emplace(std::min(a, b), std::max(a, b)).second;
    };
    const int ops = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < ops; ++i) {
      const int v = node();
      switch (rng() % 6) {
        case 0:
        case 1:  // proof churn that keeps every ball accepting
          batch.set_proof_label(
              v, bits_of_length(rng, static_cast<int>(rng() % 3)));
          dirtied.push_back(v);
          break;
        case 2:
          batch.set_node_label(v, rng() % 5);
          dirtied.push_back(v);
          break;
        case 3: {
          const int u = node();
          if (u != v && !g.has_edge(u, v) && fresh_pair(u, v)) {
            batch.add_edge(u, v);
            ++coverage->structural;
          }
          break;
        }
        case 4:
          if (g.m() > g.n()) {
            const int e = std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
            if (fresh_pair(g.edge_u(e), g.edge_v(e))) {
              batch.remove_edge(g.edge_u(e), g.edge_v(e));
              ++coverage->structural;
            }
          }
          break;
        default:
          if (rng() % 4 == 0) {  // growth: a new node, wired in at once
            batch.add_node(next_id++);
            batch.add_edge(g.n(), v);
            ++coverage->grown;
          }
          break;
      }
    }

    // Repair hints: some sitting centres, some of this batch's centres.
    if (rng() % 3 == 0) {
      std::vector<int> touched;
      const std::vector<int> sitting = rig.ref.centres();
      for (int i = 0; i < 3 && !sitting.empty(); ++i) {
        touched.push_back(sitting[rng() % sitting.size()]);
        ++coverage->repairs_sitting;
      }
      for (int v : dirtied) {
        if (rng() % 2 == 0) {
          touched.push_back(v);
          ++coverage->repairs_fresh;
        }
      }
      rig.note_repair(touched);
    }

    if (step % 30 == 17) {
      // Plant a rejecting label and audit: an exact REJECT whose
      // rejecting centre carries the flip boost once it heals.
      const int v = node();
      const BitString original = rig.p.labels[static_cast<std::size_t>(v)];
      batch.set_proof_label(v, bits_of_length(rng, 3));
      rig.tracker->apply(batch);
      rig.engine.request_audit();
      ++coverage->audits;
      const RunResult rejected = rig.run();
      ASSERT_FALSE(rejected.all_accept);
      MutationBatch heal;
      heal.set_proof_label(v, original);
      rig.tracker->apply(heal);
      ASSERT_TRUE(rig.run().all_accept);  // exact while rejecting
      // Re-dirty the healed neighbourhood: it enters with the boost.
      MutationBatch touch;
      touch.set_node_label(v, rng() % 5);
      rig.tracker->apply(touch);
      ASSERT_TRUE(rig.run().all_accept);
      ++coverage->flips_healed;
      continue;
    }
    rig.tracker->apply(batch);
    if (step % 25 == 24) {
      rig.engine.request_audit();
      ++coverage->audits;
    }
    ASSERT_TRUE(rig.run().all_accept) << "step " << step;
  }
  coverage->sampled += rig.sampled_runs;
}

TEST(SpotCheckSampler, CohortAccountingMatchesEagerPerEntryPool) {
  for (const double budget : {0.01, 0.1, 0.3, 1.0}) {
    Coverage coverage;
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      const int radius = 1 + static_cast<int>(seed % 2);
      SCOPED_TRACE(testing::Message() << "budget " << budget << " seed "
                                      << seed << " radius " << radius);
      run_oracle_schedule(budget, radius, seed, &coverage);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(coverage.sampled, 100) << budget;
    EXPECT_GT(coverage.structural, 0) << budget;
    EXPECT_GT(coverage.grown, 0) << budget;
    EXPECT_GT(coverage.audits, 0) << budget;
    // Budget 1 verifies the whole pool every run: nothing ever sits.
    if (budget < 1.0) {
      EXPECT_GT(coverage.repairs_sitting, 0) << budget;
    }
    EXPECT_GT(coverage.repairs_fresh, 0) << budget;
    EXPECT_GT(coverage.flips_healed, 0) << budget;
  }
}

TEST(SpotCheckSampler, InclusionProbabilitiesOfAWeightedPool) {
  // Four isolated centres with weights {4, 2, 1, 1} (W = 8) and k = 2.
  // Under two successive weighted draws without replacement,
  //   P(i in S) = w_i/W + sum_{j != i} (w_j/W) * w_i/(W - w_j):
  //   weight 4: 1/2 + (2/8)(4/6) + 2 (1/8)(4/7) = 17/21
  //   weight 2: 1/4 + (4/8)(2/4) + 2 (1/8)(2/7) =  4/7
  //   weight 1: 1/8 + (4/8)(1/4) + (2/8)(1/6) + (1/8)(1/7) = 13/42
  // (they sum to k = 2).  Centre 0 carries flip and repair boosts (2 x 2),
  // centre 1 the repair boost alone.
  const double expected[4] = {17.0 / 21.0, 4.0 / 7.0, 13.0 / 42.0,
                              13.0 / 42.0};
  constexpr int kTrials = 3000;
  constexpr double kDelta = 1e-6;
  const double eps = std::sqrt(std::log(2.0 / kDelta) / (2.0 * kTrials));
  int hits[4] = {0, 0, 0, 0};
  for (int t = 0; t < kTrials; ++t) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node(static_cast<NodeId>(i + 1));
    Proof p = Proof::empty(4);
    auto verifier = length_verifier(1);
    DeltaTracker tracker(g, p, 1);
    SpotCheckEngine engine(
        make_engine("direct"),
        {.budget = 0.5,
         .seed = 0x1c1c0000ULL + static_cast<std::uint64_t>(t),
         .repair_weight = 2.0,
         .flip_weight = 2.0});
    engine.attach_tracker(&tracker);
    ASSERT_TRUE(engine.run(g, p, *verifier).all_accept);

    // Centre 0 rejects at an audit, then heals: it holds the flip boost.
    MutationBatch tamper;
    tamper.set_proof_label(0, BitString::from_string("101"));
    tracker.apply(tamper);
    engine.request_audit();
    ASSERT_FALSE(engine.run(g, p, *verifier).all_accept);
    MutationBatch heal;
    heal.set_proof_label(0, BitString::from_string("1"));
    tracker.apply(heal);
    ASSERT_TRUE(engine.run(g, p, *verifier).all_accept);

    engine.note_repair({0, 1});
    MutationBatch dirt;
    for (int v = 0; v < 4; ++v) {
      dirt.set_proof_label(v, BitString::from_string("11"));
    }
    tracker.apply(dirt);
    ASSERT_TRUE(engine.run(g, p, *verifier).all_accept);
    const std::vector<int>& sample = engine.last_sample();
    ASSERT_EQ(sample.size(), 2u);
    for (int c : sample) ++hits[c];
  }
  for (int c = 0; c < 4; ++c) {
    const double freq = static_cast<double>(hits[c]) / kTrials;
    EXPECT_NEAR(freq, expected[c], eps) << "centre " << c;
  }
}

TEST(SpotCheckSampler, RoundingFuzzOnPowersOfOneAndAHalf) {
  // Sitting centres are repaired over and over, so their weights climb
  // through 1.5^j (or (1.5^8)^j) while fresh ones enter at 1: the sum
  // tree holds weights many orders of magnitude apart and its partial
  // sums round.  A draw must still never return a duplicate or an
  // unpooled centre.
  constexpr int kNodes = 96;
  int runs = 0;
  double max_weight_span = 1.0;
  for (const double repair_weight : {1.5, std::pow(1.5, 8)}) {
    for (const double budget : {0.02, 0.15}) {
      std::mt19937 rng(static_cast<std::uint32_t>(repair_weight * 1000 +
                                                  budget * 100));
      Graph g;
      for (int i = 0; i < kNodes; ++i) g.add_node(static_cast<NodeId>(i + 1));
      Rig rig(std::move(g), 1,
              {.budget = budget,
               .seed = static_cast<std::uint64_t>(rng()),
               .repair_weight = repair_weight});
      ASSERT_TRUE(rig.run(false).all_accept);
      for (int step = 0; step < 1000; ++step) {
        MutationBatch batch;
        const int fresh = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < fresh; ++i) {
          batch.set_proof_label(static_cast<int>(rng() % kNodes),
                                bits_of_length(rng, 1 + step % 2));
        }
        std::vector<int> touched;
        for (int c : rig.ref.centres()) {
          if (rng() % 10 < 7) touched.push_back(c);
        }
        rig.note_repair(touched);
        rig.tracker->apply(batch);
        max_weight_span = std::max(max_weight_span, rig.ref.weight_span());
        ASSERT_TRUE(rig.run(false).all_accept) << "step " << step;
        if (HasFailure()) return;
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 4000);
  // The pool really did mix weights far beyond a double's precision.
  EXPECT_GT(max_weight_span, 1e20);
}

TEST(SpotCheckSampler, RejectsWeightMultipliersThatAreNotPositive) {
  // A zero leaf means "not pooled": a zero, negative or non-finite
  // multiplier would drop entries from the tree and from the accounting.
  const double bad_weights[] = {0.0, -1.5,
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double bad : bad_weights) {
    EXPECT_THROW(SpotCheckEngine(make_engine("direct"),
                                 {.reextract_weight = bad}),
                 std::invalid_argument);
    EXPECT_THROW(SpotCheckEngine(make_engine("direct"),
                                 {.repair_weight = bad}),
                 std::invalid_argument);
    EXPECT_THROW(SpotCheckEngine(make_engine("direct"), {.flip_weight = bad}),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace lcp
