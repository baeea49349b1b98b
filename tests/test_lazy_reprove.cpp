// Lazy re-proving in VerificationSession::apply(): without a maintainer
// repair the session verifies the held proof and runs the scheme's prover
// only when that verdict rejects.  The differential half — every engine's
// maintainer-less session against an eager reference that re-proves every
// batch — is one of the paths tests/test_engine_oracle.cpp checks.  This
// suite pins the bookkeeping:
//
//   (a) the reject path: a healed held-proof rejection is one reprove,
//       two engine runs, and no verdict flip; a no-instance is an exact
//       REJECT with a failed prove and a forensic report;
//   (b) the spot-check tier: label-only streams never re-prove, and a
//       structural batch that breaks the held proof re-proves once after
//       the audit's exact REJECT.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "core/delta.hpp"
#include "core/engine.hpp"
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
