// Randomized dynamic-maintenance fuzz: after every maintained batch the
// session's verdict must be bit-identical to a fresh stateless sweep over
// the maintained assignment, must equal the scheme's ground truth (accept
// iff the property holds), and — whenever the property holds — a
// scheme-regenerated proof must be fully accepted too, pinning the
// maintained assignment to the same acceptance class as the static
// prover's.  The tree stream is steered to cross component merges,
// splits, splices, re-rootings, node additions, and the decline/reprove
// fallback; the suite runs under ASan+UBSan in CI.  Equivalence across
// engines under churn is tests/test_engine_oracle.cpp's job; this suite
// checks what the maintainers do to the assignment.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "algo/matching.hpp"
#include "core/engine.hpp"
#include "core/session.hpp"
#include "dynamic/coloring_maintainer.hpp"
#include "dynamic/matching_maintainer.hpp"
#include "dynamic/tree_maintainer.hpp"
#include "graph/generators.hpp"
#include "schemes/chromatic.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

/// The three-way equivalence checked after every batch.
void check_step(const VerificationSession& session, const RunResult& got,
                int step) {
  const RunResult want = sweep_sequential(session.graph(), session.proof(),
                                          session.scheme().verifier());
  ASSERT_EQ(got.all_accept, want.all_accept) << "step " << step;
  ASSERT_EQ(got.rejecting, want.rejecting) << "step " << step;

  const bool holds = session.scheme().holds(session.graph());
  ASSERT_EQ(got.all_accept, holds) << "step " << step;
  if (holds) {
    const auto fresh = session.scheme().prove(session.graph());
    ASSERT_TRUE(fresh.has_value()) << "step " << step;
    const RunResult regen =
        sweep_sequential(session.graph(), *fresh, session.scheme().verifier());
    ASSERT_TRUE(regen.all_accept) << "step " << step;
    ASSERT_EQ(got.rejecting, regen.rejecting) << "step " << step;
  }
}

int pick_node(std::mt19937& rng, const Graph& g) {
  return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
}

/// A uniformly random absent pair, or {-1, -1} when the graph is dense.
std::pair<int, int> pick_absent_edge(std::mt19937& rng, const Graph& g) {
  for (int tries = 0; tries < 32; ++tries) {
    const int u = pick_node(rng, g);
    const int v = pick_node(rng, g);
    if (u != v && !g.has_edge(u, v)) return {u, v};
  }
  return {-1, -1};
}

std::pair<int, int> pick_present_edge(std::mt19937& rng, const Graph& g) {
  if (g.m() == 0) return {-1, -1};
  const int e = std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
  return {g.edge_u(e), g.edge_v(e)};
}

TEST(DynamicFuzz, TreeCertificatesUnderChurn) {
  const schemes::LeaderElectionScheme scheme;
  Graph g0 = gen::random_connected(24, 0.08, 20260730);
  g0.set_label(0, schemes::kLeaderFlag);
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::TreeCertMaintainer>(
              schemes::kLeaderFlag))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(99);
  int leader = 0;
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 150; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 34) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 70) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 80) {
      const int v = pick_node(rng, g);
      if (v != leader) {
        batch.set_node_label(leader, 0);
        batch.set_node_label(v, schemes::kLeaderFlag);
        leader = v;
      }
    } else if (roll < 88) {
      // Node growth, sometimes with an edge op BEFORE the add in the same
      // batch: the maintainer's replay then scans final-graph neighbor
      // lists that name the not-yet-grown node.
      if (roll < 82) {
        const auto [u, v] = pick_present_edge(rng, g);
        if (u >= 0) batch.remove_edge(u, v);
      }
      batch.add_node(next_id++);
      if (roll < 84) batch.add_edge(g.n(), pick_node(rng, g));
    } else if (roll < 96) {
      // Remove-then-re-add inside one batch, plus an extra removal.
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) {
        batch.remove_edge(u, v);
        batch.add_edge(u, v);
      }
      const auto [a, b] = pick_present_edge(rng, g);
      if (a >= 0 && !(a == u && b == v) && !(a == v && b == u)) {
        batch.remove_edge(a, b);
      }
    } else {
      // Out-of-band proof tamper: forces the decline/reprove fallback.
      batch.set_proof_label(pick_node(rng, g),
                            BitString::from_string("110"));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    check_step(session, r, step);
  }

  // The stream must have crossed the interesting structural events.
  const auto& stats =
      static_cast<dynamic::TreeCertMaintainer*>(session.maintainer())->stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.splices, 0u);
  EXPECT_GT(stats.reroots, 0u);
  EXPECT_GT(session.stats().repaired, 60u);
  EXPECT_GT(session.stats().declined, 0u);
}

TEST(DynamicFuzz, GreedyColoringUnderChurn) {
  const int k = 4;
  const schemes::ChromaticLeqKScheme scheme(k);
  VerificationSession session =
      VerificationSession::on(gen::random_graph(22, 0.15, 11))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::GreedyColoringMaintainer>(k))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(7);
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 120; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 45) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 85) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else {
      // Sometimes a conflict-prone insertion precedes the growth in the
      // same batch, exercising replay against a not-yet-grown node.
      if (roll < 92) {
        const auto [u, v] = pick_absent_edge(rng, g);
        if (u >= 0) batch.add_edge(u, v);
      }
      batch.add_node(next_id++);
      batch.add_edge(g.n(), pick_node(rng, g));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    check_step(session, r, step);
  }
  EXPECT_GT(session.stats().repaired, 90u);
}

TEST(DynamicFuzz, MaximalMatchingUnderChurn) {
  const schemes::MaximalMatchingScheme scheme;
  Graph g0 = gen::random_graph(26, 0.12, 5);
  const std::vector<bool> matched = greedy_maximal_matching(g0);
  for (int e = 0; e < g0.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g0.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::MatchingMaintainer>(
              schemes::MaximalMatchingScheme::kMatchedBit))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  std::mt19937 rng(13);
  NodeId next_id = session.graph().max_id() + 1;
  for (int step = 0; step < 120; ++step) {
    const Graph& g = session.graph();
    MutationBatch batch;
    const int roll = std::uniform_int_distribution<int>(0, 99)(rng);
    if (roll < 40) {
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) batch.remove_edge(u, v);
    } else if (roll < 75) {
      const auto [u, v] = pick_absent_edge(rng, g);
      if (u >= 0) batch.add_edge(u, v);
    } else if (roll < 90) {
      // Out-of-band toggle of the matched bit: must be healed or adopted.
      const auto [u, v] = pick_present_edge(rng, g);
      if (u >= 0) {
        const int e = g.edge_index(u, v);
        batch.set_edge_label(
            u, v,
            g.edge_label(e) ^ schemes::MaximalMatchingScheme::kMatchedBit);
      }
    } else {
      // A removal first frees endpoints whose rematch scan then sees the
      // not-yet-grown node in its final-graph neighbor list.
      if (roll < 93) {
        const auto [u, v] = pick_present_edge(rng, g);
        if (u >= 0) batch.remove_edge(u, v);
      }
      batch.add_node(next_id++);
      if (roll < 95) batch.add_edge(g.n(), pick_node(rng, g));
    }
    if (batch.empty()) continue;
    const RunResult r = session.apply(batch);
    // The maintainer always repairs, so the matching stays maximal and
    // every node accepts at every step.
    EXPECT_TRUE(r.all_accept) << "step " << step;
    check_step(session, r, step);
  }
  EXPECT_EQ(session.stats().reproves, 0u);
  EXPECT_EQ(session.stats().repaired, session.stats().batches);
}

TEST(DynamicFuzz, MergeHeavyComponentIdentity) {
  // A hub with P chains of length L: cutting a chain's hub link severs a
  // deep subtree (split), re-adding it merges, and tip-to-tip links merge
  // whole chains sideways.  The stream is split/merge-saturated on
  // purpose — the union-find beside the forest must keep root_of exact
  // across hundreds of record merges and re-allocations, with check_step
  // re-deriving the ground truth after every batch.
  constexpr int kChains = 4;
  constexpr int kLen = 6;
  Graph g0;
  const int hub = g0.add_node(1, schemes::kLeaderFlag);
  std::vector<std::vector<int>> chains(kChains);
  NodeId next_id = 2;
  for (int c = 0; c < kChains; ++c) {
    int prev = hub;
    for (int i = 0; i < kLen; ++i) {
      const int v = g0.add_node(next_id++);
      g0.add_edge(prev, v);
      chains[static_cast<std::size_t>(c)].push_back(v);
      prev = v;
    }
  }

  const schemes::LeaderElectionScheme scheme;
  VerificationSession session =
      VerificationSession::on(std::move(g0))
          .scheme(scheme)
          .maintainer(std::make_unique<dynamic::TreeCertMaintainer>(
              schemes::kLeaderFlag))
          .build();
  ASSERT_TRUE(session.maintainer_bound());

  // 200 rounds allocate ~one union-find record each (one per split):
  // enough to cross the maintainer's compaction threshold (4n + 64
  // records at n = 25), so the rebuild-and-keep-serving path is
  // exercised too.
  std::mt19937 rng(20260731);
  int step = 0;
  for (int round = 0; round < 200; ++round) {
    const int c = static_cast<int>(rng() % kChains);
    const int d = static_cast<int>((c + 1 + rng() % (kChains - 1)) % kChains);
    const auto& cc = chains[static_cast<std::size_t>(c)];
    const auto& cd = chains[static_cast<std::size_t>(d)];
    const int cut = static_cast<int>(rng() % 3);  // depth of the cut link
    const int cu = cut == 0 ? hub : cc[static_cast<std::size_t>(cut - 1)];
    const int cv = cc[static_cast<std::size_t>(cut)];

    MutationBatch sever;
    sever.remove_edge(cu, cv);
    check_step(session, session.apply(sever), step++);

    if (rng() % 2 == 0) {
      // Bridge the severed chain to a neighbouring chain's tip first (a
      // cross-chain merge), then restore the cut link (another merge).
      MutationBatch bridge;
      bridge.add_edge(cc.back(), cd.back());
      check_step(session, session.apply(bridge), step++);
      MutationBatch unbridge;
      unbridge.add_edge(cu, cv);
      unbridge.remove_edge(cc.back(), cd.back());
      check_step(session, session.apply(unbridge), step++);
    } else {
      MutationBatch restore;
      restore.add_edge(cu, cv);
      check_step(session, session.apply(restore), step++);
    }
  }

  const auto& stats =
      static_cast<dynamic::TreeCertMaintainer*>(session.maintainer())->stats();
  EXPECT_GT(stats.merges, 150u);
  EXPECT_GT(stats.splits, 150u);
  EXPECT_GT(stats.record_compactions, 0u);
  EXPECT_EQ(session.stats().declined, 0u);
  EXPECT_EQ(session.stats().repaired, session.stats().batches);
}

}  // namespace
}  // namespace lcp
