// A guided tour of the observability stack: one VerificationSession — a
// composed scheme, an incremental engine with a worker pool, and a
// ComposedMaintainer — runs a churn stream with the
// Telemetry bundle, the flight-recorder journal, and rejection forensics
// all attached, then breaks its own certificate on purpose and dumps
// everything the diagnosis tier saw:
//
//   telemetry_metrics.json    the full metric snapshot (every layer:
//                             session.*, engine.*, pool.*,
//                             maintainer.*)
//   telemetry_trace.json      Chrome trace-event JSON; load it in
//                             chrome://tracing or https://ui.perfetto.dev
//                             to see the nested apply -> phase -> engine
//                             span tree per iteration
//   telemetry_journal.jsonl   the flight-recorder ring, one structured
//                             event per line (batches, repairs, reproves,
//                             lane dispatches, verdict flips)
//   telemetry_rejection.json  the RejectionReport for the tampered batch:
//                             rejecting centers, serialized witness balls,
//                             the greedily shrunken sub-batch, repair
//                             history, and the journal window
//   telemetry_prometheus.txt  Prometheus text exposition of the snapshot
//                             plus the RateSampler's derived rates
//
// plus a console digest of apply-latency percentiles, the per-phase
// breakdown, and the forensic summary.
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "algo/matching.hpp"
#include "core/session.hpp"
#include "dynamic/maintainer.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/forensics.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

int main() {
  using namespace lcp;

  // A connected instance carrying both certificates the conjunction
  // needs: a leader flag and a greedy maximal matching on edge labels.
  const int n = 2000;
  Graph g = gen::random_connected(n, 2.0 / n, 20260808);
  g.set_label(0, schemes::kLeaderFlag);
  const std::vector<bool> matched = greedy_maximal_matching(g);
  for (int e = 0; e < g.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g.set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }

  // One bundle, shared explicitly (telemetry(true) would make a private
  // one); the small worker pool exists so its layer shows up in the
  // snapshot.  journal(true) threads the flight recorder through the
  // engine and maintainer; forensics(true) arms the rejection capture.
  auto sink = std::make_shared<obs::Telemetry>();
  auto session =
      VerificationSession::on(std::move(g))
          .scheme("leader-election & maximal-matching")
          .engine(EngineKind::kIncremental)
          .engine_options({.shard_threads = 2, .shard_min_centers = 1})
          .maintain(true)
          .telemetry(sink)
          .journal(true)
          .forensics(true)
          .build();

  std::printf("scheme:     %s\n", session.scheme().name().c_str());
  std::printf("maintainer: %s\n\n",
              session.maintainer_bound() ? session.maintainer()->name().c_str()
                                         : "(none)");

  // A sliding-window sampler over the same registry the session writes:
  // sampled before and after the stream, it derives events-per-second
  // rates for the Prometheus dump below.
  obs::RateSampler sampler(sink->metrics, {.window = 4});
  sampler.sample_now();

  // Link churn: every iteration drops a few random edges and restores the
  // previous iteration's, exactly the serving pattern the maintainers
  // repair in O(deg).
  const int iterations = 30;
  std::vector<std::pair<int, int>> removed;
  int accepted = 0;
  for (int it = 0; it < iterations; ++it) {
    MutationBatch batch;
    for (const auto& [u, v] : removed) batch.add_edge(u, v);
    removed.clear();
    std::mt19937 rng(static_cast<std::uint32_t>(7919 * it + 13));
    for (int i = 0; i < 5; ++i) {
      const int e = std::uniform_int_distribution<int>(
          0, session.graph().m() - 1)(rng);
      const int u = session.graph().edge_u(e);
      const int v = session.graph().edge_v(e);
      if (session.graph().has_edge(u, v)) {
        batch.remove_edge(u, v);
        removed.emplace_back(u, v);
      }
    }
    if (session.apply(batch).all_accept) ++accepted;
  }
  // Restore the last iteration's removals.  Churn on a graph this sparse
  // occasionally removes a bridge, which genuinely falsifies
  // leader-election until the edge returns — those transient rejections
  // are real (and leave forensic reports of their own); healing here gets
  // the session back to a clean accept before the deliberate tamper below.
  {
    MutationBatch heal;
    for (const auto& [u, v] : removed) heal.add_edge(u, v);
    removed.clear();
    if (!session.apply(heal).all_accept) {
      // Churn can also strand the matching in a non-maximal state on
      // edges no batch ever touched (the O(deg) maintainers only see the
      // mutated edges).  Re-issue the greedy matching as label ops, the
      // way an operator would after reading the rejection report.
      const std::vector<bool> fresh = greedy_maximal_matching(session.graph());
      MutationBatch fix;
      for (int e = 0; e < session.graph().m(); ++e) {
        const std::uint64_t want = fresh[static_cast<std::size_t>(e)]
                                       ? schemes::MaximalMatchingScheme::kMatchedBit
                                       : 0;
        if (session.graph().edge_label(e) != want) {
          fix.set_edge_label(session.graph().edge_u(e),
                             session.graph().edge_v(e), want);
        }
      }
      if (!session.apply(fix).all_accept) {
        std::printf("unexpected: session still rejecting after heal\n");
        return 1;
      }
    }
    session.clear_last_rejection();
  }
  sampler.sample_now();
  std::printf("ran %d churn iterations, %d accepted\n\n", iterations,
              accepted);

  // The session-level digest: percentile apply latency + phase breakdown.
  const SessionTelemetry digest = session.telemetry();
  std::printf("apply latency: p50 %.1f us, p90 %.1f us, p99 %.1f us over "
              "%llu applies\n",
              digest.apply_p50_us, digest.apply_p90_us, digest.apply_p99_us,
              static_cast<unsigned long long>(digest.applies));
  std::printf("%-10s %8s %12s %12s\n", "phase", "count", "total us",
              "p99 us");
  for (const SessionTelemetry::Phase& phase : digest.phases) {
    std::printf("%-10s %8llu %12.1f %12.1f\n", phase.name.c_str(),
                static_cast<unsigned long long>(phase.count), phase.total_us,
                phase.p99_us);
  }

  // A few cross-layer metrics, read straight off the snapshot.
  const obs::MetricSnapshot snap = sink->metrics.snapshot();
  std::printf("\ncross-layer gauges (of %zu metrics total):\n",
              snap.counters.size() + snap.gauges.size() +
                  snap.histograms.size());
  for (const auto& gauge : snap.gauges) {
    if (gauge.name == "session.repaired" || gauge.name == "session.reproves" ||
        gauge.name == "engine.incremental.reextractions" ||
        gauge.name == "pool.incremental.lanes" ||
        gauge.name == "maintainer.composed.repaired_batches") {
      std::printf("  %-42s %10.2f\n", gauge.name.c_str(), gauge.value);
    }
  }
  std::printf("  %-42s %10.2f /s\n", "session.batches (windowed rate)",
              sampler.rate_of("session.batches"));

  // --- Break the certificate on purpose. ---------------------------------
  //
  // A proof tamper alone would heal: the maintainer declines, the session
  // re-proves, and the verdict stays green.  To force a real rejection we
  // falsify the *property* — clearing the leader flag leaves the
  // leader-election half of the conjunction with nothing to certify, the
  // re-prove fails, and the stale proof is rejected by every center that
  // can see the damage.  The batch buries the tamper among innocent edge
  // churn so the forensic shrink has something to do.
  std::printf("\n--- tampering: clearing the leader flag on node 0 ---\n");
  MutationBatch tamper;
  {
    std::mt19937 rng(424242);
    for (int i = 0; i < 3; ++i) {
      const int u = std::uniform_int_distribution<int>(
          1, session.graph().n() - 1)(rng);
      const int v = std::uniform_int_distribution<int>(
          1, session.graph().n() - 1)(rng);
      if (u != v && !session.graph().has_edge(u, v)) tamper.add_edge(u, v);
    }
    tamper.set_node_label(0, 0);  // the tamper itself
  }
  const RunResult verdict = session.apply(tamper);
  std::printf("verdict: %s (%zu rejecting centers)\n",
              verdict.all_accept ? "accept" : "REJECT",
              verdict.rejecting.size());

  if (session.last_rejection().has_value()) {
    const obs::RejectionReport& report = *session.last_rejection();
    std::printf("\nrejection forensics (batch %llu, generation %llu):\n",
                static_cast<unsigned long long>(report.batch_index),
                static_cast<unsigned long long>(report.generation));
    std::printf("  shrunken batch: %zu of %zu applied op(s) suffice to "
                "reject (%llu shrink evals)\n",
                report.minimal_batch.size(), report.mutation_batch.size(),
                static_cast<unsigned long long>(report.shrink_evals));
    std::printf("  witness balls:  %zu (radius %d)\n",
                report.witnesses.size(), report.radius);
    for (const obs::RejectionWitness& w : report.witnesses) {
      std::printf("    center %d%s: %d node(s) in view\n", w.center,
                  w.newly_rejecting ? " [newly rejecting]" : "",
                  w.view.ball.n());
    }
    std::printf("  journal window: %zu event(s) before the flip\n",
                report.journal_window.size());

    std::FILE* rejection_out = std::fopen("telemetry_rejection.json", "w");
    if (rejection_out != nullptr) {
      std::fputs(report.to_json().c_str(), rejection_out);
      std::fputs("\n", rejection_out);
      std::fclose(rejection_out);
    }
  } else {
    std::printf("unexpected: no rejection report captured\n");
    return 1;
  }

  // Full exports.
  std::FILE* metrics_out = std::fopen("telemetry_metrics.json", "w");
  if (metrics_out != nullptr) {
    std::fputs(sink->snapshot_json().c_str(), metrics_out);
    std::fclose(metrics_out);
  }
  std::FILE* trace_out = std::fopen("telemetry_trace.json", "w");
  if (trace_out != nullptr) {
    std::fputs(sink->trace.to_chrome_json().c_str(), trace_out);
    std::fclose(trace_out);
  }
  std::FILE* journal_out = std::fopen("telemetry_journal.jsonl", "w");
  if (journal_out != nullptr) {
    std::fputs(session.journal()->to_jsonl().c_str(), journal_out);
    std::fclose(journal_out);
  }
  std::FILE* prom_out = std::fopen("telemetry_prometheus.txt", "w");
  if (prom_out != nullptr) {
    std::fputs(obs::to_prometheus_text(sink->metrics.snapshot()).c_str(),
               prom_out);
    std::fputs(sampler.to_prometheus_text().c_str(), prom_out);
    std::fclose(prom_out);
  }
  std::printf("\nwrote telemetry_metrics.json (%zu metrics), "
              "telemetry_trace.json (%zu spans),\n"
              "      telemetry_journal.jsonl (%llu events), "
              "telemetry_rejection.json, telemetry_prometheus.txt\n",
              snap.counters.size() + snap.gauges.size() +
                  snap.histograms.size(),
              sink->trace.event_count(),
              static_cast<unsigned long long>(
                  session.journal()->total_emitted()));
  std::printf("open chrome://tracing (or https://ui.perfetto.dev) and load "
              "telemetry_trace.json to browse the span tree\n");
  return 0;
}
