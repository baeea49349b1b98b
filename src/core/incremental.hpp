// The dirty-ball re-verification engine.
//
// A(G, P, v) depends only on v's radius-r ball, so after a small delta to
// (G, P) only the centres whose balls intersect the change can flip their
// verdict.  IncrementalEngine keeps every node's verdict — and nothing
// else — and on each run re-extracts and re-verifies only the dirty
// centres.  Balls are symmetric (u is in B_r(c) iff c is in B_r(u)), so
// the centres a touched node can affect are exactly the radius-r BFS
// around it; no view cache or inverted index is needed to find them.
//
// Two ways a run can go incremental:
//
//   1. Tracker path.  A DeltaTracker (core/delta.hpp) is attached and the
//      run's (graph, proof) are the tracker's bound pair.  The dirty set is
//      the log's structural_dirty centres (computed stepwise by the
//      tracker) plus the radius-r BFS around every proof or label
//      epicentre, taken on the final graph.  Node additions grow the
//      verdicts in place.  A state-fingerprint comparison (O(n + m + proof
//      bits), skippable via options) detects out-of-band mutations and
//      falls back to a full sweep, so results stay identical to
//      DirectEngine's even when the delta contract is violated.
//
//   2. Content path.  No tracker (or a foreign graph): the engine compares
//      the graph fingerprint with its cached one and, when the graph is
//      unchanged, diffs the proof against a retained copy — an exact,
//      hash-free diff — and re-verifies the BFS around each changed label.
//      This makes plain proof-mutation loops (exhaustive proof search)
//      incremental with no caller cooperation at all.
//
// Anything else — first run, radius or verifier change, structural change
// without a tracker — is a full sweep.  Large dirty sets can be
// re-verified across a persistent worker pool (`shard_threads`), with
// results bit-identical to the serial path.  The differential oracle in
// tests/test_engine_oracle.cpp pins bit-identical RunResults against the
// reference sweep on every path: the content path, tracker-fed sessions
// under churn, and serial and pooled rounds.
#ifndef LCP_CORE_INCREMENTAL_HPP_
#define LCP_CORE_INCREMENTAL_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/worker_pool.hpp"

namespace lcp {

struct IncrementalEngineOptions {
  /// Verify the tracker's state fingerprint against a full recompute on
  /// every tracker-path run.  Costs O(n + m + proof bits); turning it off
  /// shifts responsibility for the "all mutations go through the tracker"
  /// contract entirely to the caller.
  bool verify_state = true;
  /// Worker threads for dirty-set re-verification; <= 1 keeps it serial.
  /// The pool is created lazily on the first sharded round.
  int shard_threads = 0;
  /// Only shard rounds with at least this many dirty centres (a pool
  /// dispatch costs more than a few extractions).
  std::size_t shard_min_centers = 128;
};

class IncrementalEngine final : public ExecutionEngine {
 public:
  explicit IncrementalEngine(IncrementalEngineOptions options = {})
      : options_(options) {}
  ~IncrementalEngine() override;

  std::string name() const override { return "incremental"; }

  /// Registers "engine.incremental.*" (the Stats counters) and
  /// "pool.incremental.*" lane gauges once the sharding pool exists.
  /// Phase spans ("incremental.dirty_scan", "incremental.verify",
  /// "incremental.full_sweep") are emitted into the sink's TraceRecorder
  /// while attached.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Subsequent runs whose (graph, proof) match the tracker's bound pair
  /// consume its dirty log.  Passing nullptr detaches.  Attaching always
  /// drops the verdicts (the tracker's generation counter becomes the
  /// engine's clock).  Returns true: this engine consumes trackers.
  bool attach_tracker(DeltaTracker* tracker) override;
  DeltaTracker* attached_tracker() const override { return tracker_; }

  /// Emits lane-dispatch events while attached.
  void attach_journal(obs::Journal* journal) override { journal_ = journal; }
  obs::Journal* attached_journal() const override { return journal_; }

  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Runtime toggle (tests flip it between runs to cross-check serial and
  /// pooled rounds); it affects subsequent runs only.
  void set_shard_threads(int threads) { options_.shard_threads = threads; }

  struct Stats {
    std::uint64_t full_sweeps = 0;       ///< complete sweeps
    std::uint64_t incremental_runs = 0;  ///< delta-driven runs
    std::uint64_t unchanged_runs = 0;    ///< state identical: kept verdicts
    std::uint64_t nodes_reverified = 0;  ///< accept() calls on delta paths
    std::uint64_t fallbacks = 0;         ///< fingerprint/log forced resweeps
    /// Always 0: views are no longer patched.  Kept until the benchmark
    /// retires its per-layer patch rows.
    std::uint64_t views_patched = 0;
    /// Always 0, as views_patched.
    std::uint64_t patch_fallbacks = 0;
    std::uint64_t reextractions = 0;     ///< centres re-extracted on deltas
    std::uint64_t sharded_rounds = 0;    ///< reverify rounds on the pool
  };
  const Stats& stats() const { return stats_; }

  /// The dirty centres re-verified by the most recent run, in guaranteed
  /// ascending dense-index order — a *stable* iteration surface for
  /// consumers that sample or replay the dirty set (core/spot_check.hpp),
  /// identical across serial and pooled rounds.  Empty after full sweeps,
  /// unchanged runs, and fallbacks (where "the dirty set" is the whole
  /// graph or nothing).
  const std::vector<int>& last_dirty_centers() const {
    return last_dirty_centers_;
  }

 private:
  RunResult run_impl(const Graph& g, const Proof& p, const LocalVerifier& a);
  RunResult full_sweep(const Graph& g, const Proof& p,
                       const LocalVerifier& a, std::uint64_t graph_fp);
  RunResult run_tracker_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);
  RunResult run_content_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);
  /// Adds the radius-r BFS around host node u to the dirty set.
  void mark_ball(const Graph& g, int u, int radius);
  void mark(int c);
  /// Re-extracts and re-verifies the sorted dirty set, on the pool when
  /// the round is large enough and sharding is enabled.
  void reverify(const Graph& g, const Proof& p, const LocalVerifier& a);
  RunResult result_from_verdicts() const;
  void invalidate();

  IncrementalEngineOptions options_;
  DeltaTracker* tracker_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  VerdictAttribution attribution_;
  std::unique_ptr<WorkerPool> pool_;
  // lanes_[0] serves serial rounds and dirty scans; pooled rounds use one
  // lane per worker.
  std::vector<CentreVerifier> lanes_ = std::vector<CentreVerifier>(1);

  bool valid_ = false;
  // Verdicts are only valid for the verifier they were computed with:
  // identity (address) is the key, so a different verifier object — even
  // one of equal radius — forces a sweep.
  const LocalVerifier* cached_verifier_ = nullptr;
  // True when the verdicts mirror the tracker's bound pair; a content-path
  // run on a foreign (graph, proof) sweeps that pair and clears this,
  // forcing the next tracker-path run to resweep instead of trusting
  // verdicts that belong to another graph.
  bool from_tracker_ = false;
  int cached_radius_ = -1;
  std::uint64_t cached_graph_fp_ = 0;
  // Tracker-path runs invalidate the graph fingerprint instead of
  // recomputing O(n + m) per run; a later content-path run then sweeps.
  bool cached_graph_fp_valid_ = false;
  std::uint64_t consumed_generation_ = 0;
  std::vector<std::uint8_t> verdicts_;
  // Exact proof copy for the content diff; only content-path sweeps take
  // it (tracker runs clear it, so a later content run sweeps).
  std::vector<BitString> last_proofs_;

  // The most recent delta run's sorted dirty set (see last_dirty_centers).
  std::vector<int> last_dirty_centers_;

  // Dirty-set scratch: dirty_epoch_[c] == epoch_ marks c this run.
  std::vector<int> dirty_;
  std::vector<std::uint64_t> dirty_epoch_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint8_t> out_;

  Stats stats_;
};

}  // namespace lcp

#endif  // LCP_CORE_INCREMENTAL_HPP_
