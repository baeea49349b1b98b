// The LOCAL model core: view extraction semantics, runner acceptance, and
// the equivalence of the two execution backends (direct induced balls vs
// explicit message-passing rounds) — the paper's Section 2.1 semantics.
#include <gtest/gtest.h>

#include "core/checker.hpp"
#include "core/runner.hpp"
#include "core/verifier.hpp"
#include "core/view.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "local/message_passing.hpp"

namespace lcp {
namespace {

TEST(View, BallIsInducedSubgraph) {
  // C8 with a chord inside the ball: the chord must be present (induced).
  Graph g = gen::cycle(8);
  g.add_edge(1, 3);
  const View v = extract_view(g, Proof::empty(g.n()), 2, 1);
  // Ball of node 2 radius 1: nodes {2, 1, 3}; induced includes chord 1-3.
  EXPECT_EQ(v.ball.n(), 3);
  const int i1 = *v.ball.index_of(g.id(1));
  const int i3 = *v.ball.index_of(g.id(3));
  EXPECT_TRUE(v.ball.has_edge(i1, i3));
}

TEST(View, DistancesFromCenter) {
  const Graph g = gen::path(9);
  const View v = extract_view(g, Proof::empty(g.n()), 4, 3);
  EXPECT_EQ(v.ball.n(), 7);
  EXPECT_EQ(v.dist_of(v.center), 0);
  int at_three = 0;
  for (int u = 0; u < v.ball.n(); ++u) {
    if (v.dist_of(u) == 3) ++at_three;
  }
  EXPECT_EQ(at_three, 2);
}

TEST(View, ProofsTravelWithNodes) {
  const Graph g = gen::cycle(5);
  Proof p = Proof::empty(5);
  for (int i = 0; i < 5; ++i) p.labels[static_cast<std::size_t>(i)].append_uint(
      static_cast<std::uint64_t>(i), 3);
  const View v = extract_view(g, p, 0, 1);
  for (int u = 0; u < v.ball.n(); ++u) {
    BitReader r(v.proof_of(u));
    EXPECT_EQ(r.read_uint(3), v.ball.id(u) - 1);  // ids are 1..n
  }
}

TEST(View, BallNodesReportsDistances) {
  // The 4-arg ball_nodes overload returns the BFS distances it already
  // computed; they must equal a from-scratch BFS restricted to the ball.
  Graph g = gen::grid(3, 4);
  g.add_edge(0, 11);
  for (int center : {0, 5, 11}) {
    for (int radius : {0, 1, 2, 3}) {
      std::vector<int> dist;
      const std::vector<int> order = ball_nodes(g, center, radius, dist);
      ASSERT_EQ(order.size(), dist.size());
      EXPECT_EQ(order, ball_nodes(g, center, radius));
      const std::vector<int> full = bfs_distances(g, center);
      for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(dist[i], full[static_cast<std::size_t>(order[i])]);
        EXPECT_LE(dist[i], radius);
      }
    }
  }
}

TEST(View, SeesWholeComponent) {
  const Graph g = gen::cycle(6);
  EXPECT_FALSE(extract_view(g, Proof::empty(6), 0, 2).sees_whole_component());
  EXPECT_TRUE(extract_view(g, Proof::empty(6), 0, 4).sees_whole_component());
}

TEST(Runner, AllAcceptAndRejectingList) {
  const Graph g = gen::path(5);
  const LambdaVerifier odd_id(0, [](const View& v) {
    return v.ball.id(v.center) % 2 == 1;
  });
  const RunResult r = default_engine().run(g, Proof::empty(5), odd_id);
  EXPECT_FALSE(r.all_accept);
  EXPECT_EQ(r.rejecting.size(), 2u);  // ids 2 and 4
}

TEST(Runner, RadiusZeroSeesOnlySelf) {
  const Graph g = gen::complete(4);
  const LambdaVerifier lonely(0, [](const View& v) {
    return v.ball.n() == 1;
  });
  EXPECT_TRUE(default_engine().run(g, Proof::empty(4), lonely).all_accept);
}

class BackendEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BackendEquivalence, FloodingAssemblesTheInducedBall) {
  const int radius = GetParam();
  // A verifier that fingerprints its whole view; if the two backends build
  // different views for any node, some fingerprint check fails.
  std::vector<Graph> graphs;
  graphs.push_back(gen::cycle(9));
  graphs.push_back(gen::grid(3, 4));
  graphs.push_back(gen::petersen());
  graphs.push_back(gen::random_connected(12, 0.2, 5));
  graphs.push_back(gen::random_tree(10, 2));
  graphs.push_back(gen::disjoint_union(gen::cycle(4), gen::path(3)));
  for (Graph& g : graphs) {
    Proof p = Proof::empty(g.n());
    for (int v = 0; v < g.n(); ++v) {
      p.labels[static_cast<std::size_t>(v)].append_uint(g.id(v) * 7 + 1, 8);
    }
    for (int v = 0; v < g.n(); ++v) {
      const View direct = extract_view(g, p, v, radius);
      const View flooded = assemble_view_by_flooding(g, p, v, radius);
      // Same node sets (as ids), same edge counts, same centre, same
      // proofs per id, same distances per id.
      ASSERT_EQ(direct.ball.n(), flooded.ball.n());
      ASSERT_EQ(direct.ball.m(), flooded.ball.m());
      EXPECT_EQ(direct.center_id(), flooded.center_id());
      for (int u = 0; u < direct.ball.n(); ++u) {
        const NodeId id = direct.ball.id(u);
        const auto fu = flooded.ball.index_of(id);
        ASSERT_TRUE(fu.has_value());
        EXPECT_EQ(direct.proof_of(u), flooded.proof_of(*fu));
        EXPECT_EQ(direct.dist_of(u), flooded.dist_of(*fu));
        EXPECT_EQ(direct.ball.label(u), flooded.ball.label(*fu));
        EXPECT_EQ(direct.ball.degree(u), flooded.ball.degree(*fu));
      }
      // Same edges in the same endpoint order, which carries arc
      // directions (graph/directed.hpp).
      for (int e = 0; e < direct.ball.m(); ++e) {
        const int fu =
            *flooded.ball.index_of(direct.ball.id(direct.ball.edge_u(e)));
        const int fv =
            *flooded.ball.index_of(direct.ball.id(direct.ball.edge_v(e)));
        const int fe = flooded.ball.edge_index(fu, fv);
        ASSERT_GE(fe, 0);
        EXPECT_EQ(flooded.ball.edge_u(fe), fu);
        EXPECT_EQ(flooded.ball.edge_label(fe), direct.ball.edge_label(e));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, BackendEquivalence, ::testing::Values(0, 1, 2, 3));

TEST(Checker, ExhaustiveSearchFindsTwoColoring) {
  // Verifier: accept iff proof is a proper 1-bit 2-colouring.
  const LambdaVerifier two_col(1, [](const View& v) {
    const BitString& mine = v.proof_of(v.center);
    if (mine.size() != 1) return false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const BitString& other = v.proof_of(h.to);
      if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
    }
    return true;
  });
  EXPECT_TRUE(exists_accepted_proof(gen::cycle(4), two_col, 1));
  EXPECT_FALSE(exists_accepted_proof(gen::cycle(5), two_col, 1));
}

TEST(Checker, TamperedVariantsAreDistinctFromOriginal) {
  Proof p = Proof::empty(4);
  for (int v = 0; v < 4; ++v) {
    p.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(v), 4);
  }
  const auto variants = tampered_variants(p, 50, 1);
  EXPECT_GT(variants.size(), 10u);
  for (const Proof& q : variants) {
    bool same = true;
    for (int v = 0; v < 4; ++v) {
      if (!(q.labels[static_cast<std::size_t>(v)] ==
            p.labels[static_cast<std::size_t>(v)])) {
        same = false;
      }
    }
    EXPECT_FALSE(same);
  }
}

}  // namespace
}  // namespace lcp

// ---- appended: end-to-end scheme equivalence across backends ----

#include "schemes/cycle_certified.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

TEST(BackendEquivalence, SchemesEndToEnd) {
  // Full schemes (not just raw views): the message-passing backend must
  // reproduce the ball-extraction verdicts node for node, on accepted
  // proofs and on tampered ones.
  schemes::LeaderElectionScheme leader;
  Graph g1 = gen::random_connected(12, 0.25, 21);
  g1.set_label(4, schemes::kLeaderFlag);
  const Proof p1 = *leader.prove(g1);
  EXPECT_TRUE(run_verifier_message_passing(g1, p1, leader.verifier())
                  .all_accept);

  Proof bad = p1;
  bad.labels[2] = BitString::from_string("1010");
  const RunResult direct = default_engine().run(g1, bad, leader.verifier());
  const RunResult flooded =
      run_verifier_message_passing(g1, bad, leader.verifier());
  EXPECT_EQ(direct.all_accept, flooded.all_accept);
  EXPECT_EQ(direct.rejecting, flooded.rejecting);

  schemes::NonBipartiteScheme nonbip;
  const Graph g2 = gen::petersen();
  const Proof p2 = *nonbip.prove(g2);
  EXPECT_TRUE(run_verifier_message_passing(g2, p2, nonbip.verifier())
                  .all_accept);
  const RunResult d2 = default_engine().run(gen::cycle(6), Proof::empty(6),
                                    nonbip.verifier());
  const RunResult f2 = run_verifier_message_passing(
      gen::cycle(6), Proof::empty(6), nonbip.verifier());
  EXPECT_EQ(d2.rejecting, f2.rejecting);
}

}  // namespace
}  // namespace lcp
