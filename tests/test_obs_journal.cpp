// Flight-recorder journal semantics: per-thread rings with bounded
// capacity (old events overwritten, true count kept), global seq order
// across threads, static-key args, JSONL rendering, and the null-guarded
// maybe_emit fast path.  The multithreaded hammer runs under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.hpp"

namespace lcp::obs {
namespace {

TEST(Journal, EmitsInSeqOrderWithArgs) {
  Journal journal;
  journal.emit(JournalEventKind::kBatchApplied, "session",
               {{"ops", 3}, {"generation", 7}});
  journal.emit(JournalEventKind::kRepairEmitted, "tree-cert", {{"ops", 2}});
  journal.emit(JournalEventKind::kVerdictFlip, "session",
               {{"accepting", 0}, {"rejecting", 4}});

  const std::vector<JournalEvent> events = journal.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(events[0].kind, JournalEventKind::kBatchApplied);
  EXPECT_STREQ(events[0].label, "session");
  EXPECT_STREQ(events[0].args[0].key, "ops");
  EXPECT_EQ(events[0].args[0].value, 3);
  EXPECT_STREQ(events[0].args[1].key, "generation");
  EXPECT_EQ(events[0].args[1].value, 7);
  EXPECT_EQ(events[0].args[2].key, nullptr);
  EXPECT_EQ(journal.total_emitted(), 3u);
}

TEST(Journal, KindNamesAreStableSnakeCase) {
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kBatchApplied),
               "batch_applied");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kRepairEmitted),
               "repair_emitted");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kRepairDeclined),
               "repair_declined");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kReprove), "reprove");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kHaloExchange),
               "halo_exchange");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kLaneDispatch),
               "lane_dispatch");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kTransportSend),
               "transport_send");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kVerdictFlip),
               "verdict_flip");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kSpotSample),
               "spot_sample");
  EXPECT_STREQ(journal_kind_name(JournalEventKind::kSpotEscalate),
               "spot_escalate");
}

TEST(Journal, RingOverwritesOldestButCountsEverything) {
  Journal journal(/*per_thread_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    journal.emit(JournalEventKind::kBatchApplied, "session", {{"ops", i}});
  }
  const std::vector<JournalEvent> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, still in order.
  EXPECT_EQ(events[0].args[0].value, 6);
  EXPECT_EQ(events[3].args[0].value, 9);
  EXPECT_EQ(journal.total_emitted(), 10u);
}

TEST(Journal, TailReturnsTheNewestEvents) {
  Journal journal;
  for (int i = 0; i < 8; ++i) {
    journal.emit(JournalEventKind::kReprove, "session", {{"ops", i}});
  }
  const std::vector<JournalEvent> tail = journal.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].args[0].value, 5);
  EXPECT_EQ(tail[2].args[0].value, 7);
  EXPECT_EQ(journal.tail(100).size(), 8u);
}

TEST(Journal, JsonlOneObjectPerLineWithSchemaFields) {
  Journal journal;
  journal.emit(JournalEventKind::kLaneDispatch, "engine.parallel",
               {{"lanes", 4}, {"nodes", 100}});
  journal.emit(JournalEventKind::kHaloExchange, "engine.sharded",
               {{"radius", 2}});
  const std::string jsonl = journal.to_jsonl();
  // Two lines, each a JSON object carrying the schema fields the CI
  // checker (tools/check_telemetry.py) validates.
  const std::size_t newline = jsonl.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string first = jsonl.substr(0, newline);
  EXPECT_NE(first.find("\"seq\":"), std::string::npos);
  EXPECT_NE(first.find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(first.find("\"tid\":"), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"lane_dispatch\""), std::string::npos);
  EXPECT_NE(first.find("\"label\":\"engine.parallel\""), std::string::npos);
  EXPECT_NE(first.find("\"lanes\":4"), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(Journal, MaybeEmitToleratesNull) {
  maybe_emit(nullptr, JournalEventKind::kVerdictFlip, "session",
             {{"accepting", 1}});
  Journal journal;
  maybe_emit(&journal, JournalEventKind::kVerdictFlip, "session",
             {{"accepting", 1}});
  EXPECT_EQ(journal.total_emitted(), 1u);
}

TEST(Journal, ConcurrentEmittersKeepPerThreadRingsAndGlobalSeq) {
  Journal journal(/*per_thread_capacity=*/64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.emit(JournalEventKind::kTransportSend, "transport",
                     {{"from", t}, {"to", i}});
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(journal.total_emitted(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(journal.thread_count(), static_cast<std::size_t>(kThreads));
  const std::vector<JournalEvent> events = journal.events();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads * 64));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

}  // namespace
}  // namespace lcp::obs
