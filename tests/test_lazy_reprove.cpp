// Lazy re-proving in VerificationSession::apply(): without a maintainer
// repair the session verifies the held proof and runs the scheme's prover
// only when that verdict rejects.
//
//   (a) differential: on every engine spec, a maintainer-less session fed
//       seeded mixed streams (label churn, edge churn that breaks and
//       restores bipartiteness, node joins, proof tampers) returns the
//       same verdict after every batch as an eager reference that
//       re-proves every batch by hand, and the same state fingerprint
//       whenever the session re-proved;
//   (b) the reject path's bookkeeping: a healed held-proof rejection is
//       one reprove, two engine runs, and no verdict flip; a no-instance
//       is an exact REJECT with a failed prove and a forensic report;
//   (c) the spot-check tier: label-only streams never re-prove, and a
//       structural batch that breaks the held proof re-proves once after
//       the audit's exact REJECT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "obs/journal.hpp"

namespace lcp {
namespace {

/// `bits` with bit 0 flipped (a lone 1 when empty).
BitString flipped(const BitString& bits) {
  if (bits.empty()) return BitString::from_string("1");
  BitString out;
  for (int i = 0; i < bits.size(); ++i) {
    out.append_bit(i == 0 ? !bits.bit(i) : bits.bit(i));
  }
  return out;
}

/// Edges the stream added and removed, so later batches mostly undo them:
/// the stream keeps moving between yes- and no-instances instead of
/// drifting into a dense non-bipartite or a shattered graph.
struct EdgeChurn {
  std::vector<std::pair<int, int>> added;
  std::vector<std::pair<int, int>> removed;
};

/// Pops a random entry of `pool` that `keep` admits, if any.
template <typename Keep>
bool take(std::mt19937& rng, std::vector<std::pair<int, int>>* pool,
          Keep keep, std::pair<int, int>* out) {
  if (pool->empty()) return false;
  const std::size_t k = rng() % pool->size();
  const std::pair<int, int> edge = (*pool)[k];
  if (!keep(edge)) return false;
  (*pool)[k] = pool->back();
  pool->pop_back();
  *out = edge;
  return true;
}

/// One batch of 1-4 ops.
MutationBatch random_batch(std::mt19937& rng, const Graph& g, const Proof& p,
                           EdgeChurn* churn) {
  MutationBatch batch;
  std::set<std::pair<int, int>> touched;  // one op per edge per batch
  const auto fresh = [&](int u, int v) {
    return touched.insert({std::min(u, v), std::max(u, v)}).second;
  };
  const auto node = [&] {
    return std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
  };
  const int ops = 1 + static_cast<int>(rng() % 4);
  bool joined = false;
  for (int i = 0; i < ops; ++i) {
    switch (rng() % 6) {
      case 0:
        batch.set_node_label(node(), rng() % 8);
        break;
      case 1: {  // add: restore a removed edge, or a new one (about
                 // half of those close an odd cycle)
        const auto absent = [&](std::pair<int, int> e) {
          return !g.has_edge(e.first, e.second) && fresh(e.first, e.second);
        };
        std::pair<int, int> e;
        if (rng() % 2 == 0 && take(rng, &churn->removed, absent, &e)) {
          batch.add_edge(e.first, e.second);
          break;
        }
        e = {node(), node()};
        if (e.first != e.second && absent(e)) {
          batch.add_edge(e.first, e.second);
          churn->added.push_back(e);
        }
        break;
      }
      case 2: {  // remove: mostly undo an earlier add
        const auto present = [&](std::pair<int, int> e) {
          return g.has_edge(e.first, e.second) && fresh(e.first, e.second);
        };
        std::pair<int, int> e;
        if (rng() % 4 != 0 && take(rng, &churn->added, present, &e)) {
          batch.remove_edge(e.first, e.second);
        } else if (g.m() > 0) {
          const int k = std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
          e = {g.edge_u(k), g.edge_v(k)};
          if (fresh(e.first, e.second)) {
            batch.remove_edge(e.first, e.second);
            churn->removed.push_back(e);
          }
        }
        break;
      }
      case 3:
      case 4: {  // out-of-band proof tamper
        const int v = node();
        batch.set_proof_label(v, flipped(p.labels[static_cast<std::size_t>(v)]));
        break;
      }
      default:  // two nodes join as a pendant path (keeps n's parity)
        if (!joined && rng() % 3 == 0) {
          joined = true;
          const int anchor = node();
          batch.add_node(g.max_id() + 1);
          batch.add_node(g.max_id() + 2);
          batch.add_edge(g.n(), anchor);
          batch.add_edge(g.n() + 1, g.n());
        }
        break;
    }
  }
  return batch;
}

struct LazyCounts {
  int accepts = 0;
  int rejects = 0;
  int healed = 0;  // batches whose held proof was rejected and re-proved
  int failed = 0;  // batches whose re-prove failed (no-instance)
};

/// Drives a maintainer-less session on `spec` and an eager reference
/// (DeltaTracker + full prove + diff + sequential sweep every batch)
/// through the same stream, comparing after every batch.
LazyCounts run_differential(const std::string& spec, const std::string& expr,
                            std::uint32_t seed, int batches) {
  const Graph start = gen::grid(5, 6);
  auto session = VerificationSession::on(start)
                     .scheme(expr)
                     .engine(spec)
                     .build();

  const std::unique_ptr<Scheme> scheme = builtin_registry().build(expr);
  Graph g = start;
  Proof p = scheme->prove(g).value_or(Proof::empty(g.n()));
  DeltaTracker tracker(g, p, scheme->verifier().radius());
  EXPECT_EQ(session.proof().labels, p.labels);

  LazyCounts counts;
  std::mt19937 rng(seed);
  EdgeChurn churn;
  for (int b = 0; b < batches; ++b) {
    const MutationBatch batch =
        random_batch(rng, session.graph(), session.proof(), &churn);
    const SessionStats before = session.stats();
    const RunResult got = session.apply(batch);

    tracker.apply(batch);
    if (auto fresh = scheme->prove(g)) {
      MutationBatch diff;
      diff_proofs_into_batch(p, *fresh, &diff);
      if (!diff.empty()) tracker.apply(diff);
    }
    const RunResult want = sweep_sequential(g, p, scheme->verifier());

    const std::string where = spec + " / " + expr + " batch " +
                              std::to_string(b);
    EXPECT_EQ(got.all_accept, want.all_accept) << where;
    EXPECT_EQ(got.rejecting, want.rejecting) << where;
    const bool reproved = session.stats().reproves > before.reproves;
    const bool failed = session.stats().failed_proves > before.failed_proves;
    if (reproved && !failed) {
      EXPECT_EQ(session.tracker().state_fingerprint(),
                tracker.state_fingerprint())
          << where;
    }
    counts.accepts += got.all_accept ? 1 : 0;
    counts.rejects += got.all_accept ? 0 : 1;
    counts.healed += reproved && !failed ? 1 : 0;
    counts.failed += failed ? 1 : 0;
    if (::testing::Test::HasFailure()) break;
  }
  // A lazy session re-proves only after a rejection, never more often
  // than the eager reference's once per batch.
  EXPECT_LE(session.stats().reproves, session.stats().batches);
  return counts;
}

TEST(LazyReprove, MatchesEagerReferenceOnEveryEngine) {
  for (const char* spec :
       {"direct", "parallel", "incremental", "sharded:2", "spotcheck:1.0"}) {
    for (const char* expr : {"bipartite", "bipartite & even-n"}) {
      LazyCounts total;
      for (std::uint32_t seed : {11u, 12u, 13u}) {
        const LazyCounts c = run_differential(spec, expr, seed, 60);
        total.accepts += c.accepts;
        total.rejects += c.rejects;
        total.healed += c.healed;
        total.failed += c.failed;
      }
      // The streams exercise every branch: accepted held proofs,
      // rejections healed by the prover, and failed proves.
      EXPECT_GT(total.accepts, 0) << spec << " / " << expr;
      EXPECT_GT(total.rejects, 0) << spec << " / " << expr;
      EXPECT_GT(total.healed, 0) << spec << " / " << expr;
      EXPECT_GT(total.failed, 0) << spec << " / " << expr;
    }
  }
}

std::size_t count_kind(const obs::Journal& journal,
                       obs::JournalEventKind kind) {
  std::size_t n = 0;
  for (const obs::JournalEvent& e : journal.events()) n += e.kind == kind;
  return n;
}

std::uint64_t phase_count(const VerificationSession& session,
                          const std::string& name) {
  for (const SessionTelemetry::Phase& phase : session.telemetry().phases) {
    if (phase.name == name) return phase.count;
  }
  return 0;
}

TEST(LazyReprove, HealedRejectionIsOneReproveAndNoFlip) {
  auto session = VerificationSession::on(gen::grid(4, 4))
                     .scheme("bipartite")
                     .engine(EngineKind::kIncremental)
                     .journal(true)
                     .telemetry(true)
                     .forensics(true)
                     .build();
  ASSERT_TRUE(session.verify().all_accept);
  const obs::Journal& journal = *session.journal();

  // A yes-instance whose held proof is broken at node 5.
  MutationBatch tamper;
  tamper.set_proof_label(5, flipped(session.proof().labels[5]));
  const SessionStats before = session.stats();
  const RunResult healed = session.apply(tamper);
  EXPECT_TRUE(healed.all_accept);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kReprove), 1u);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kVerdictFlip), 0u);
  EXPECT_FALSE(session.last_rejection().has_value());
  EXPECT_EQ(session.stats().verifies - before.verifies, 2u);
  EXPECT_EQ(session.stats().reproves, 1u);
  EXPECT_EQ(phase_count(session, "reprove"), 1u);
  EXPECT_EQ(phase_count(session, "verify"), 3u);  // verify() + two runs

  // Nodes 0 and 5 share a colour: the chord closes an odd cycle, the
  // prover fails, and the stale proof's exact REJECT stands.
  MutationBatch chord;
  chord.add_edge(0, 5);
  const RunResult rejected = session.apply(chord);
  EXPECT_FALSE(rejected.all_accept);
  const RunResult exact = sweep_sequential(session.graph(), session.proof(),
                                           session.scheme().verifier());
  EXPECT_EQ(rejected.rejecting, exact.rejecting);
  EXPECT_EQ(session.stats().failed_proves, 1u);
  EXPECT_EQ(session.stats().reproves, 2u);
  EXPECT_EQ(count_kind(journal, obs::JournalEventKind::kVerdictFlip), 1u);
  ASSERT_TRUE(session.last_rejection().has_value());
  EXPECT_EQ(session.last_rejection()->rejecting, exact.rejecting);
}

TEST(LazyReprove, SpotCheckLabelStreamNeverReproves) {
  auto session = VerificationSession::on(gen::grid(20, 20))
                     .scheme("bipartite")
                     .engine("spotcheck:0.01")
                     .telemetry(true)
                     .build();
  SpotCheckEngine* spot = session.spot_check_engine();
  ASSERT_NE(spot, nullptr);
  ASSERT_TRUE(session.verify().all_accept);
  const Proof initial = session.proof();

  // relabel-spot's shape: label-only batches with a periodic audit.
  std::mt19937 rng(5);
  for (int b = 0; b < 60; ++b) {
    MutationBatch batch;
    for (int i = 0; i < 20; ++i) {
      batch.set_node_label(
          std::uniform_int_distribution<int>(0, 399)(rng), rng() % 8);
    }
    if ((b + 1) % 20 == 0) spot->request_audit();
    EXPECT_TRUE(session.apply(batch).all_accept) << "batch " << b;
  }
  EXPECT_EQ(session.stats().reproves, 0u);
  EXPECT_EQ(phase_count(session, "reprove"), 0u);
  EXPECT_EQ(session.proof().labels, initial.labels);

  // Cut the grid between columns 9 and 10 and rejoin the halves one row
  // apart: still bipartite, but every rejoining edge now links two nodes
  // of the same held colour.
  MutationBatch shift;
  for (int r = 0; r < 20; ++r) shift.remove_edge(r * 20 + 9, r * 20 + 10);
  for (int r = 0; r + 1 < 20; ++r) {
    shift.add_edge(r * 20 + 9, (r + 1) * 20 + 10);
  }
  const std::uint64_t escalations = session.stats().spot_escalations;
  spot->request_audit();
  const RunResult r = session.apply(shift);
  EXPECT_TRUE(r.all_accept);
  EXPECT_EQ(session.stats().reproves, 1u);
  EXPECT_EQ(session.stats().failed_proves, 0u);
  EXPECT_GT(session.stats().spot_escalations, escalations);
  EXPECT_EQ(phase_count(session, "reprove"), 1u);

  spot->request_audit();
  EXPECT_TRUE(session.verify().all_accept);
  EXPECT_TRUE(sweep_sequential(session.graph(), session.proof(),
                               session.scheme().verifier())
                  .all_accept);
}

}  // namespace
}  // namespace lcp
