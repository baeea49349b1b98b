// Churn-stream workload generator: preferential-attachment growth plus
// sliding-window edge expiry, emitted as MutationBatches.
//
// This is the ROADMAP's "churn-stream workload generator" follow-up: a
// deterministic, replayable stream that looks like a living network —
// newborn nodes attach to well-connected nodes (degree-proportional
// endpoint sampling via the uniform-random-edge trick), transient links
// appear between busy nodes and expire after a fixed window — rather than
// the uniform remove/re-add loops of the earlier benches.  Used by the
// gated benchmark (perfbench/) and by the engine oracle
// (tests/test_engine_oracle.cpp) to drive every engine and session path
// through realistic deltas.
//
// Determinism contract: next(it, g, batch) draws all randomness from a
// per-iteration generator seeded by (seed, it), and `it == 0` resets the
// internal window state, so replaying the stream against an identical
// starting graph produces identical batches.
#ifndef LCP_BENCH_CHURN_STREAM_HPP_
#define LCP_BENCH_CHURN_STREAM_HPP_

#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <utility>

#include "core/delta.hpp"
#include "graph/graph.hpp"

namespace lcp::bench {

class ChurnStream {
 public:
  struct Options {
    /// Probability that an iteration grows the graph by one node.
    double grow_probability = 0.35;
    /// Edges a newborn node attaches with (preferential endpoints).
    /// Attachment edges are permanent — expiring them would strand the
    /// newborns — only churn edges slide out of the window.
    int attach_edges = 2;
    /// Transient edges injected per iteration between preferential
    /// endpoint pairs.
    int churn_edges = 3;
    /// Iterations a transient edge lives before it is removed.
    int window = 12;
    std::uint32_t seed = 1;
  };

  explicit ChurnStream(Options options) : options_(options) {}

  /// Appends iteration `it`'s mutations against the current graph state.
  /// Call with consecutive `it` starting at 0; `it == 0` resets the
  /// sliding window so one stream object can be replayed.
  void next(int it, const Graph& g, MutationBatch* batch) {
    if (it == 0) {
      live_.clear();
      live_pairs_.clear();
      next_id_ = g.max_id() + 1;
    }
    std::mt19937 rng(options_.seed ^
                     (0x9e3779b9u * static_cast<std::uint32_t>(it + 1)));

    // Expire transient edges that have outlived the window.
    while (!live_.empty() && live_.front().born + options_.window <= it) {
      const LiveEdge e = live_.front();
      live_.pop_front();
      live_pairs_.erase(key(e.u, e.v));
      batch->remove_edge(e.u, e.v);
    }

    // Preferential growth: the newborn wires to endpoints of uniformly
    // random edges (endpoint of a random edge ~ degree-proportional).
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng) < options_.grow_probability) {
      batch->add_node(next_id_++);
      const int newborn = g.n();  // dense index at application time
      std::set<int> picked;
      for (int i = 0; i < options_.attach_edges; ++i) {
        const int target = preferential_node(rng, g);
        if (target >= 0 && picked.insert(target).second) {
          batch->add_edge(newborn, target);
        }
      }
    }

    // Transient churn between preferential endpoint pairs.
    for (int i = 0; i < options_.churn_edges; ++i) {
      const int u = preferential_node(rng, g);
      const int v = preferential_node(rng, g);
      if (u < 0 || v < 0 || u == v) continue;
      if (g.has_edge(u, v) || live_pairs_.count(key(u, v)) != 0) continue;
      batch->add_edge(u, v);
      live_.push_back(LiveEdge{u, v, it});
      live_pairs_.insert(key(u, v));
    }
  }

  /// Transient edges currently alive (for test assertions).
  std::size_t live_edges() const { return live_.size(); }

 private:
  struct LiveEdge {
    int u = 0;
    int v = 0;
    int born = 0;
  };

  static std::pair<int, int> key(int u, int v) {
    return u < v ? std::pair<int, int>{u, v} : std::pair<int, int>{v, u};
  }

  /// A node sampled roughly proportionally to degree (uniform otherwise).
  static int preferential_node(std::mt19937& rng, const Graph& g) {
    if (g.n() == 0) return -1;
    if (g.m() == 0) {
      return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
    }
    const int e = std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
    return std::uniform_int_distribution<int>(0, 1)(rng) == 0 ? g.edge_u(e)
                                                              : g.edge_v(e);
  }

  Options options_;
  std::deque<LiveEdge> live_;
  std::set<std::pair<int, int>> live_pairs_;
  NodeId next_id_ = 0;
};

}  // namespace lcp::bench

#endif  // LCP_BENCH_CHURN_STREAM_HPP_
