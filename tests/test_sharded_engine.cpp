// ShardedEngine isolation and plumbing.
//
// Bit-identity with the reference sweep — every shard count and
// partitioner (including a boundary-heavy striped one), the content path
// and the tracker path, node growth across shards — is pinned by the
// differential oracle (tests/test_engine_oracle.cpp).  This suite checks
// what the oracle cannot see: an interior-only batch wakes exactly one
// lane and moves no halo traffic, boundary churn rebuilds halos, transport
// counters are visible, the factory parses specs, sessions compose the
// backend with maintainers, and the ball budget's overflow path holds.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/sharded_engine.hpp"
#include "graph/generators.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

void expect_equal(const RunResult& expected, const RunResult& actual,
                  const std::string& label) {
  EXPECT_EQ(expected.all_accept, actual.all_accept) << label;
  EXPECT_EQ(expected.rejecting, actual.rejecting) << label;
}

TEST(ShardedEngine, HaloTrafficVisibleAndBounded) {
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::cycle(32);
  const Proof p = *scheme->prove(g);

  ShardedEngineOptions lone;
  lone.shards = 1;
  ShardedEngine single(lone);
  ASSERT_TRUE(single.run(g, p, scheme->verifier()).all_accept);
  // One shard never has a fringe: zero ghost rows cross the transport.
  EXPECT_EQ(single.transport().stats().records, 0u);

  ShardedEngineOptions quad;
  quad.shards = 4;
  ShardedEngine sharded(quad);
  ASSERT_TRUE(sharded.run(g, p, scheme->verifier()).all_accept);
  const TransportStats stats = sharded.transport().stats();
  // A 32-cycle in 4 contiguous stripes at radius 1 has 8 boundary
  // endpoints: each stripe imports exactly its two fringe neighbours.
  EXPECT_EQ(stats.records, 8u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ShardedTracker, InteriorChurnWakesOneShard) {
  const auto scheme = builtin_registry().build("leader-election");
  Graph g = gen::cycle(64);
  g.set_label(3, schemes::kLeaderFlag);
  Proof p = *scheme->prove(g);
  const int radius = scheme->verifier().radius();
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);
  DirectEngine reference;

  ASSERT_TRUE(engine.run(g, p, scheme->verifier()).all_accept);
  const std::uint64_t records_before = engine.transport().stats().records;

  // Nodes 24..26 sit deep inside shard 1's stripe [16, 32); at radius 1
  // nothing within reach of another shard changes.
  MutationBatch batch;
  batch.remove_edge(24, 25);
  batch.add_edge(24, 25);
  batch.set_proof_label(26, p.labels[26]);
  tracker.apply(batch);

  const auto& stats = engine.stats();
  const std::uint64_t woken_before = stats.shards_woken;
  expect_equal(reference.run(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "interior-churn");
  EXPECT_EQ(stats.shards_woken - woken_before, 1u);
  EXPECT_EQ(stats.halo_rebuilds, 0u);
  // Interior churn ships nothing: no requests, no records, no patches.
  EXPECT_EQ(engine.transport().stats().records, records_before);
}

TEST(ShardedTracker, BoundaryChurnRebuildsHalosAndMatches) {
  const auto scheme = builtin_registry().build("bipartite");
  Graph g = gen::cycle(40);
  Proof p = *scheme->prove(g);
  const int radius = scheme->verifier().radius();
  DeltaTracker tracker(g, p, radius);

  ShardedEngineOptions options;
  options.shards = 4;
  ShardedEngine engine(options);
  engine.attach_tracker(&tracker);
  DirectEngine reference;

  ASSERT_TRUE(engine.run(g, p, scheme->verifier()).all_accept);

  // A chord across the stripe boundary at node 10: both shard 0 and
  // shard 1 see their fringes move.
  MutationBatch batch;
  batch.add_edge(8, 12);
  tracker.apply(batch);
  expect_equal(reference.run(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "boundary-add");
  EXPECT_GE(engine.stats().halo_rebuilds, 1u);

  MutationBatch undo;
  undo.remove_edge(8, 12);
  tracker.apply(undo);
  expect_equal(reference.run(g, p, scheme->verifier()),
               engine.run(g, p, scheme->verifier()), "boundary-remove");
}

TEST(ShardedFactory, ParsesSpecs) {
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::cycle(8);
  const Proof p = *scheme->prove(g);
  for (const char* spec : {"sharded", "sharded:1", "sharded:4",
                           "sharded:2:hash", "sharded:3:range"}) {
    const auto engine = make_engine(spec);
    ASSERT_NE(engine, nullptr) << spec;
    EXPECT_EQ(engine->name(), "sharded") << spec;
    EXPECT_TRUE(engine->run(g, p, scheme->verifier()).all_accept) << spec;
  }
  auto engine = make_engine("sharded:6:hash");
  auto* sharded = dynamic_cast<ShardedEngine*>(engine.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), 6);
  (void)sharded->run(g, p, scheme->verifier());
  EXPECT_EQ(sharded->partitioner().name(), "hash");

  EXPECT_THROW(make_engine("sharded:"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:0"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:x"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:2:mod"), std::invalid_argument);
  EXPECT_THROW(make_engine("sharded:99999"), std::invalid_argument);
}

TEST(ShardedSession, ComposesWithMaintainers) {
  Graph g = gen::random_connected(30, 0.15, 3);
  g.set_label(0, schemes::kLeaderFlag);
  auto session = VerificationSession::on(std::move(g))
                     .scheme("leader-election")
                     .engine("sharded:3")
                     .maintain(true)
                     .build();
  ASSERT_TRUE(session.verify().all_accept);
  int added = 0;
  for (int round = 0; round < 120 && added < 5; ++round) {
    const int u = round % session.graph().n();
    const int v = (round * 7 + 11) % session.graph().n();
    if (u == v || session.graph().has_edge(u, v)) continue;
    MutationBatch batch;
    batch.add_edge(u, v);
    EXPECT_TRUE(session.apply(batch).all_accept) << round;
    ++added;
  }
  EXPECT_EQ(added, 5);
  EXPECT_TRUE(session.verify().all_accept);
}

TEST(ShardedEngine, DenseBallsMatchReference) {
  // Every ball of a complete bipartite graph is the whole graph, so each
  // shard's halo is everything; verdicts must not change across runs.
  const auto scheme = builtin_registry().build("bipartite");
  const Graph g = gen::complete_bipartite(6, 6);
  const Proof p = *scheme->prove(g);
  ShardedEngineOptions options;
  options.shards = 3;
  ShardedEngine dense(options);
  DirectEngine reference;
  for (int round = 0; round < 3; ++round) {
    expect_equal(reference.run(g, p, scheme->verifier()),
                 dense.run(g, p, scheme->verifier()),
                 "dense-round-" + std::to_string(round));
  }
}

}  // namespace
}  // namespace lcp
