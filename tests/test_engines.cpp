// Engine-specific behaviour that the differential oracle
// (tests/test_engine_oracle.cpp) does not pin: DirectEngine's view-cache
// invalidation, LRU residency, ball budget and tracker migration, and the
// make_engine factory's names.  Verdict equivalence across engines lives in
// the oracle.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& engine, const std::string& label) {
  EXPECT_EQ(expected.all_accept, actual.all_accept)
      << engine << " on " << label;
  EXPECT_EQ(expected.rejecting, actual.rejecting)
      << engine << " on " << label;
}

TEST(DirectEngineCache, InvalidatesOnGraphMutation) {
  // Same object, mutated between runs: the fingerprint must catch node
  // labels, edge labels, and structure.
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::random_connected(12, 0.25, 21);
  g.set_label(4, schemes::kLeaderFlag);
  const Proof p = *scheme.prove(g);

  DirectEngine cached;
  DirectEngine fresh({/*cache_views=*/false});
  ASSERT_TRUE(cached.run(g, p, scheme.verifier()).all_accept);

  g.set_label(7, schemes::kLeaderFlag);  // second leader: proof now invalid
  const RunResult expected = fresh.run(g, p, scheme.verifier());
  const RunResult actual = cached.run(g, p, scheme.verifier());
  EXPECT_FALSE(actual.all_accept);
  EXPECT_EQ(expected.rejecting, actual.rejecting);

  Graph h = gen::cycle(12);
  h.set_label(0, schemes::kLeaderFlag);
  const Proof ph = *scheme.prove(h);
  expect_equal(fresh.run(h, ph, scheme.verifier()),
               cached.run(h, ph, scheme.verifier()), "direct-cached",
               "switch-to-new-graph");
}

TEST(DirectEngineCache, AlternatingGraphsDontThrash) {
  // The gluing attack alternates between two instances; both must stay
  // resident so neither run pays re-extraction.
  const schemes::BipartiteScheme scheme;
  Graph g1 = gen::cycle(12);
  Graph g2 = gen::grid(3, 4);
  const Proof p1 = *scheme.prove(g1);
  const Proof p2 = *scheme.prove(g2);
  DirectEngine cached;
  DirectEngine fresh({/*cache_views=*/false});
  for (int round = 0; round < 3; ++round) {
    expect_equal(fresh.run(g1, p1, scheme.verifier()),
                 cached.run(g1, p1, scheme.verifier()), "direct-lru",
                 "g1-round-" + std::to_string(round));
    expect_equal(fresh.run(g2, p2, scheme.verifier()),
                 cached.run(g2, p2, scheme.verifier()), "direct-lru",
                 "g2-round-" + std::to_string(round));
  }
  EXPECT_EQ(cached.cached_graph_count(), 2u);

  // A third and fourth graph evict nothing yet (capacity 4); a fifth
  // evicts the least recently used.
  for (int extra = 0; extra < 3; ++extra) {
    Graph g = gen::cycle(14 + 2 * extra);
    const Proof p = *scheme.prove(g);
    (void)cached.run(g, p, scheme.verifier());
  }
  EXPECT_EQ(cached.cached_graph_count(), 4u);
}

TEST(DirectEngineCache, CapFallsBackToUncached) {
  // A complete graph at radius 1 has n-node balls; with a tiny cap the
  // engine must abandon the cache and still be correct.
  const schemes::BipartiteScheme scheme;
  const Graph g = gen::complete_bipartite(6, 6);
  const Proof p = *scheme.prove(g);
  DirectEngine tiny({/*cache_views=*/true, /*max_cached_ball_nodes=*/8});
  DirectEngine fresh({/*cache_views=*/false});
  for (int round = 0; round < 2; ++round) {
    expect_equal(fresh.run(g, p, scheme.verifier()),
                 tiny.run(g, p, scheme.verifier()), "direct-tiny-cache",
                 "cap-round-" + std::to_string(round));
  }
}

TEST(DirectEngineCache, MigratesAcrossFingerprintsWithTracker) {
  // With a tracker attached, a graph mutation must not drop the warm
  // cache: the dirty log is replayed over the cached views and the entry
  // is rekeyed to the new fingerprint.
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::random_connected(30, 0.12, 29);
  g.set_label(4, schemes::kLeaderFlag);
  Proof p = *scheme.prove(g);
  DeltaTracker tracker(g, p, scheme.verifier().radius());

  DirectEngine cached;
  DirectEngine fresh({/*cache_views=*/false});
  ASSERT_TRUE(cached.attach_tracker(&tracker));
  expect_equal(fresh.run(g, p, scheme.verifier()),
               cached.run(g, p, scheme.verifier()), "direct-migrate",
               "warm-up");
  EXPECT_EQ(cached.stats().migrations, 0u);

  // Structural + label churn: every round must migrate, not rebuild.
  std::uint64_t expected_migrations = 0;
  for (int round = 0; round < 4; ++round) {
    MutationBatch batch;
    const int e = g.m() - 1 - round;
    batch.remove_edge(g.edge_u(e), g.edge_v(e));
    batch.set_node_label(round, 7);
    batch.set_proof_label(round, p.labels[static_cast<std::size_t>(
                                     (round + 5) % g.n())]);
    tracker.apply(batch);
    expect_equal(fresh.run(g, p, scheme.verifier()),
                 cached.run(g, p, scheme.verifier()), "direct-migrate",
                 "round-" + std::to_string(round));
    ++expected_migrations;
    EXPECT_EQ(cached.stats().migrations, expected_migrations);
    EXPECT_EQ(cached.cached_graph_count(), 1u);
  }
  // Some views survive each small mutation in place.
  EXPECT_GT(cached.stats().migrated_views, 0u);

  // Node growth migrates too: appended nodes are extracted fresh, the
  // rest replay.
  MutationBatch grow;
  grow.add_node(777);
  grow.add_edge(g.n(), 3);
  tracker.apply(grow);
  expect_equal(fresh.run(g, p, scheme.verifier()),
               cached.run(g, p, scheme.verifier()), "direct-migrate",
               "growth");
  EXPECT_EQ(cached.stats().migrations, expected_migrations + 1);
  EXPECT_GT(cached.stats().migration_reextractions, 0u);

  // A proof-only batch is a plain cache hit (the graph fingerprint is
  // unchanged), and the lineage keeps rolling forward for later batches.
  MutationBatch proof_only;
  proof_only.set_proof_label(2, p.labels[9]);
  tracker.apply(proof_only);
  expect_equal(fresh.run(g, p, scheme.verifier()),
               cached.run(g, p, scheme.verifier()), "direct-migrate",
               "proof-only");
  EXPECT_EQ(cached.stats().migrations, expected_migrations + 1);
  MutationBatch after;
  after.remove_edge(g.edge_u(0), g.edge_v(0));
  tracker.apply(after);
  expect_equal(fresh.run(g, p, scheme.verifier()),
               cached.run(g, p, scheme.verifier()), "direct-migrate",
               "after-proof-only");
  EXPECT_EQ(cached.stats().migrations, expected_migrations + 2);

  cached.attach_tracker(nullptr);
}

TEST(DirectEngineCache, MigrationRefusesOutOfBandMutation) {
  // A mutation bypassing the tracker must fall back to a full rebuild —
  // and still be correct — because the dirty log no longer accounts for
  // the divergence.
  const schemes::BipartiteScheme scheme;
  Graph g = gen::grid(4, 5);
  Proof p = *scheme.prove(g);
  DeltaTracker tracker(g, p, scheme.verifier().radius());
  DirectEngine cached;
  DirectEngine fresh({/*cache_views=*/false});
  ASSERT_TRUE(cached.attach_tracker(&tracker));
  (void)cached.run(g, p, scheme.verifier());

  g.set_label(0, 42);  // out of band: tracker fingerprint now stale
  expect_equal(fresh.run(g, p, scheme.verifier()),
               cached.run(g, p, scheme.verifier()), "direct-migrate",
               "out-of-band");
  EXPECT_EQ(cached.stats().migrations, 0u);
  cached.attach_tracker(nullptr);
}

TEST(EngineFactory, KnowsEveryBackend) {
  const schemes::BipartiteScheme scheme;
  const Graph g = gen::cycle(8);
  const Proof p = *scheme.prove(g);
  for (const char* name :
       {"direct", "message-passing", "parallel", "incremental", "sharded"}) {
    const std::unique_ptr<ExecutionEngine> engine = make_engine(name);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), name);
    EXPECT_TRUE(engine->run(g, p, scheme.verifier()).all_accept) << name;
  }
  EXPECT_THROW(make_engine("quantum"), std::invalid_argument);
}

}  // namespace
}  // namespace lcp
