// The dynamic proof-maintenance subsystem (src/dynamic/): targeted cases
// for the tree, coloring, and matching maintainers and the DynamicPipeline
// fallback machinery.  The randomized cross-check lives in
// tests/test_dynamic_fuzz.cpp.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "dynamic/coloring_maintainer.hpp"
#include "dynamic/matching_maintainer.hpp"
#include "dynamic/pipeline.hpp"
#include "dynamic/tree_maintainer.hpp"
#include "graph/generators.hpp"
#include "schemes/chromatic.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

using dynamic::DynamicPipeline;
using dynamic::GreedyColoringMaintainer;
using dynamic::MatchingMaintainer;
using dynamic::TreeCertMaintainer;

/// The pipeline's incremental verdict must be bit-identical to a fresh
/// stateless DirectEngine sweep over the maintained assignment.
void expect_matches_direct(DynamicPipeline& pipe, const RunResult& got) {
  DirectEngine direct({/*cache_views=*/false});
  const RunResult want =
      direct.run(pipe.graph(), pipe.proof(), pipe.scheme().verifier());
  EXPECT_EQ(got.all_accept, want.all_accept);
  EXPECT_EQ(got.rejecting, want.rejecting);
}

// ------------------------------------------------------------ tree certs --

DynamicPipeline leader_pipeline(Graph g) {
  static const schemes::LeaderElectionScheme scheme;
  g.set_label(0, schemes::kLeaderFlag);
  return DynamicPipeline(
      std::move(g), scheme,
      std::make_unique<TreeCertMaintainer>(schemes::kLeaderFlag));
}

TEST(TreeMaintainer, BindsToSchemeProof) {
  DynamicPipeline pipe = leader_pipeline(gen::random_connected(20, 0.2, 7));
  EXPECT_TRUE(pipe.maintainer_bound());
  EXPECT_TRUE(pipe.verify().all_accept);
}

TEST(TreeMaintainer, SplicesAroundRemovedTreeEdge) {
  // Removing any single edge of a cycle keeps it connected, so whichever
  // edge the certificate tree used, the maintainer must heal.
  DynamicPipeline pipe = leader_pipeline(gen::cycle(8));
  auto* maintainer = static_cast<TreeCertMaintainer*>(pipe.maintainer());
  for (int i = 0; i < 8; ++i) {
    MutationBatch batch;
    batch.remove_edge(i, (i + 1) % 8);
    RunResult r = pipe.apply(batch);
    EXPECT_TRUE(r.all_accept) << "removing edge " << i;
    expect_matches_direct(pipe, r);
    MutationBatch undo;
    undo.add_edge(i, (i + 1) % 8);
    r = pipe.apply(undo);
    EXPECT_TRUE(r.all_accept);
    expect_matches_direct(pipe, r);
  }
  EXPECT_EQ(pipe.stats().declined, 0u);
  EXPECT_EQ(pipe.stats().reproves, 0u);
  EXPECT_GT(maintainer->stats().splices, 0u);
}

TEST(TreeMaintainer, SplitAndMergeAcrossComponents) {
  DynamicPipeline pipe = leader_pipeline(gen::path(9));
  auto* maintainer = static_cast<TreeCertMaintainer*>(pipe.maintainer());

  // Cutting a path splits it; the leaderless component must raise alarms.
  MutationBatch cut;
  cut.remove_edge(4, 5);
  RunResult r = pipe.apply(cut);
  EXPECT_FALSE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(maintainer->stats().splits, 1u);
  EXPECT_EQ(pipe.stats().reproves, 0u);  // the maintainer kept the forest

  // Reconnecting elsewhere merges the components back.
  MutationBatch join;
  join.add_edge(0, 8);
  r = pipe.apply(join);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(maintainer->stats().merges, 1u);
  EXPECT_EQ(pipe.stats().reproves, 0u);
}

TEST(TreeMaintainer, ReRootsOnLeaderMove) {
  DynamicPipeline pipe = leader_pipeline(gen::random_connected(16, 0.15, 3));
  auto* maintainer = static_cast<TreeCertMaintainer*>(pipe.maintainer());
  MutationBatch batch;
  batch.set_node_label(0, 0);
  batch.set_node_label(11, schemes::kLeaderFlag);
  const RunResult r = pipe.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(maintainer->stats().reroots, 1u);
  EXPECT_EQ(pipe.stats().reproves, 0u);
}

TEST(TreeMaintainer, GrowsWithAddedNodes) {
  DynamicPipeline pipe = leader_pipeline(gen::cycle(6));
  const NodeId fresh = pipe.graph().max_id() + 1;
  MutationBatch batch;
  batch.add_node(fresh);
  batch.add_edge(6, 2);
  const RunResult r = pipe.apply(batch);
  EXPECT_EQ(pipe.graph().n(), 7);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().reproves, 0u);

  // An isolated addition leaves the leader component intact but breaks
  // connectivity: somebody must reject.
  MutationBatch lone;
  lone.add_node(fresh + 1);
  const RunResult r2 = pipe.apply(lone);
  EXPECT_FALSE(r2.all_accept);
  expect_matches_direct(pipe, r2);
}

TEST(TreeMaintainer, RemoveThenReAddInOneBatch) {
  DynamicPipeline pipe = leader_pipeline(gen::path(7));
  MutationBatch batch;
  batch.remove_edge(3, 4);
  batch.add_edge(3, 4);
  const RunResult r = pipe.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().reproves, 0u);
}

TEST(TreeMaintainer, DeclinesOutOfBandProofEdit) {
  DynamicPipeline pipe = leader_pipeline(gen::cycle(6));
  MutationBatch tamper;
  tamper.set_proof_label(2, BitString::from_string("1011"));
  const RunResult r = pipe.apply(tamper);
  // The maintainer declines, the pipeline reproves, and the fresh proof
  // overwrites the tamper: verification still accepts.
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().declined, 1u);
  EXPECT_EQ(pipe.stats().reproves, 1u);
  EXPECT_TRUE(pipe.maintainer_bound());  // rebound to the fresh proof

  // Subsequent batches are maintained again.
  MutationBatch batch;
  batch.remove_edge(0, 1);
  const RunResult r2 = pipe.apply(batch);
  EXPECT_TRUE(r2.all_accept);
  EXPECT_EQ(pipe.stats().reproves, 1u);
}

// -------------------------------------------------------------- coloring --

TEST(ColoringMaintainer, RecolorsConflictEndpoint) {
  const schemes::ChromaticLeqKScheme scheme(3);
  DynamicPipeline pipe(gen::cycle(6), scheme,
                       std::make_unique<GreedyColoringMaintainer>(3));
  ASSERT_TRUE(pipe.maintainer_bound());
  MutationBatch batch;
  batch.add_edge(0, 2);  // an even cycle 2-colours, so 0 and 2 collide
  const RunResult r = pipe.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().reproves, 0u);
  auto* maintainer = static_cast<GreedyColoringMaintainer*>(pipe.maintainer());
  EXPECT_EQ(maintainer->stats().recolored, 1u);
}

TEST(ColoringMaintainer, DeclineFallsBackToExactProver) {
  const schemes::ChromaticLeqKScheme scheme(2);
  DynamicPipeline pipe(gen::path(4), scheme,
                       std::make_unique<GreedyColoringMaintainer>(2));
  ASSERT_TRUE(pipe.maintainer_bound());

  MutationBatch batch;
  batch.add_edge(0, 2);  // triangle: not 2-colourable, greedy cannot help
  const RunResult r = pipe.apply(batch);
  EXPECT_FALSE(r.all_accept);  // no-instance: rejection is the right answer
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().declined, 1u);
  EXPECT_EQ(pipe.stats().failed_proves, 1u);
  EXPECT_FALSE(pipe.maintainer_bound());

  // Removing the chord restores 2-colourability; the reprove path heals
  // the assignment and rebinds the maintainer.
  MutationBatch undo;
  undo.remove_edge(0, 2);
  const RunResult r2 = pipe.apply(undo);
  EXPECT_TRUE(r2.all_accept);
  expect_matches_direct(pipe, r2);
  EXPECT_TRUE(pipe.maintainer_bound());
}

// -------------------------------------------------------------- matching --

Graph matched_path6() {
  Graph g = gen::path(6);
  for (int u : {0, 2, 4}) {
    g.set_edge_label(g.edge_index(u, u + 1),
                     schemes::MaximalMatchingScheme::kMatchedBit);
  }
  return g;
}

TEST(MatchingMaintainer, RepairsRemovalAndInsertion) {
  const schemes::MaximalMatchingScheme scheme;
  DynamicPipeline pipe(matched_path6(), scheme,
                       std::make_unique<MatchingMaintainer>(
                           schemes::MaximalMatchingScheme::kMatchedBit));
  ASSERT_TRUE(pipe.maintainer_bound());

  // Dropping the middle matched edge leaves 2 and 3 free but non-adjacent:
  // still maximal, nothing to rematch.
  MutationBatch batch;
  batch.remove_edge(2, 3);
  RunResult r = pipe.apply(batch);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);

  // Re-inserting it joins two free nodes: the maintainer must match them
  // on the spot or node 2 would reject.
  MutationBatch undo;
  undo.add_edge(2, 3);
  r = pipe.apply(undo);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  auto* maintainer = static_cast<MatchingMaintainer*>(pipe.maintainer());
  EXPECT_EQ(maintainer->stats().direct_matches, 1u);
  EXPECT_EQ(pipe.stats().reproves, 0u);
}

TEST(MatchingMaintainer, HealsOutOfBandBitEdit) {
  const schemes::MaximalMatchingScheme scheme;
  DynamicPipeline pipe(matched_path6(), scheme,
                       std::make_unique<MatchingMaintainer>(
                           schemes::MaximalMatchingScheme::kMatchedBit));
  ASSERT_TRUE(pipe.maintainer_bound());
  MutationBatch tamper;
  tamper.set_edge_label(0, 1, 0);  // clear the matched bit behind our back
  const RunResult r = pipe.apply(tamper);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  auto* maintainer = static_cast<MatchingMaintainer*>(pipe.maintainer());
  EXPECT_EQ(maintainer->stats().healed_labels, 1u);
  EXPECT_EQ(pipe.stats().reproves, 0u);
  // The healed label is back on the graph.
  EXPECT_EQ(pipe.graph().edge_label(pipe.graph().edge_index(0, 1)),
            schemes::MaximalMatchingScheme::kMatchedBit);
}

// -------------------------------------------------- pipeline without one --

TEST(DynamicPipeline, NullMaintainerReprovesOnlyAfterRejection) {
  static const schemes::LeaderElectionScheme scheme;
  Graph g = gen::cycle(8);
  g.set_label(0, schemes::kLeaderFlag);
  DynamicPipeline pipe(std::move(g), scheme, nullptr);
  EXPECT_FALSE(pipe.maintainer_bound());
  const Proof initial = pipe.proof();
  // Each batch removes and re-adds an edge: the held proof still verifies,
  // so the prover never runs and the proof bits stay as they were.
  for (int i = 0; i < 3; ++i) {
    MutationBatch batch;
    batch.remove_edge(i, i + 1);
    batch.add_edge(i, i + 1);
    const RunResult r = pipe.apply(batch);
    EXPECT_TRUE(r.all_accept);
    expect_matches_direct(pipe, r);
  }
  EXPECT_EQ(pipe.stats().reproves, 0u);
  EXPECT_EQ(pipe.proof().labels, initial.labels);

  // An out-of-band tamper makes the held proof reject: exactly one
  // reprove heals it and the batch still accepts.
  MutationBatch tamper;
  tamper.set_proof_label(2, BitString::from_string("1011"));
  const RunResult r = pipe.apply(tamper);
  EXPECT_TRUE(r.all_accept);
  expect_matches_direct(pipe, r);
  EXPECT_EQ(pipe.stats().reproves, 1u);
  EXPECT_EQ(pipe.stats().repaired, 0u);
}

}  // namespace
}  // namespace lcp
