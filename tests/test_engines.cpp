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

TEST(DirectEngine, SeesGraphMutation) {
  // Same object, mutated between runs: a stateless sweep must see node
  // labels, edge labels, and structure.
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::random_connected(12, 0.25, 21);
  g.set_label(4, schemes::kLeaderFlag);
  const Proof p = *scheme.prove(g);

  DirectEngine reused;
  DirectEngine fresh;
  ASSERT_TRUE(reused.run(g, p, scheme.verifier()).all_accept);

  g.set_label(7, schemes::kLeaderFlag);  // second leader: proof now invalid
  const RunResult expected = fresh.run(g, p, scheme.verifier());
  const RunResult actual = reused.run(g, p, scheme.verifier());
  EXPECT_FALSE(actual.all_accept);
  EXPECT_EQ(expected.rejecting, actual.rejecting);

  Graph h = gen::cycle(12);
  h.set_label(0, schemes::kLeaderFlag);
  const Proof ph = *scheme.prove(h);
  expect_equal(fresh.run(h, ph, scheme.verifier()),
               reused.run(h, ph, scheme.verifier()), "direct-reused",
               "switch-to-new-graph");
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
