// The sharded execution engine: partition the host graph, exchange
// depth-r halos, verify each shard on its own lane.
//
// Locality is what makes verification shardable: A(G, P, v) reads only v's
// radius-r ball (Section 2.1), so a shard that owns a node set S can decide
// every owned verdict from the subgraph induced on S plus the depth-r ghost
// fringe around it.  ShardedEngine partitions nodes into k shards through a
// Partitioner, gives each shard a pinned WorkerPool lane and a private
// *local graph* (owned nodes plus ghosts, host ids preserved), and
// materialises the ghosts by explicit halo exchange: r
// coordinator-driven rounds of request/record messages over a
// ShardTransport (core/shard_transport.hpp).  Only the fringe ever crosses
// shards; the transport counts the traffic so the boundary cost is visible.
//
// Local graphs replicate the host representation bit-exactly where it
// matters (ids, labels, edge-record direction, id-sorted adjacency), so a
// ball extracted from a shard's local graph is bit-identical to one
// extracted from the host — verdicts and rejecting sets match DirectEngine
// exactly (tests/test_sharded_engine.cpp pins this across the registry
// corpus, partitioners, radii and shard counts).
//
// With a DeltaTracker attached, runs consume the dirty log under
// IncrementalEngine semantics, with shard isolation on top:
//
//   - the coordinator routes each ViewDelta to exactly the shards where an
//     endpoint is local (owned or ghost), and each structurally dirty
//     centre to its owner; a batch confined to one shard's interior never
//     wakes the other lanes;
//   - touched lanes replay routed ops into their local graph, add the
//     radius-r BFS around each label or proof epicentre (ball symmetry),
//     and re-extract and re-verify those owned centres from the local
//     graph, not the host.  Lanes keep verdicts only, no views;
//   - the ghost halo is re-exchanged only when a boundary fringe actually
//     changed: an edge op triggers a shard's halo rebuild exactly when it
//     can alter which nodes lie within r of the owned set (see the trigger
//     rules in sharded_engine.cpp).  Owned-interior mutations provably
//     cannot, so they never cause traffic;
//   - proof updates for ghost copies travel as ProofPatch messages through
//     the transport, owner lane to importer lane.
//
// The engine registers as "sharded" (factory grammar "sharded[:K[:PART]]"),
// so `session.engine("sharded:8")` composes with maintainers and the
// scheme algebra unchanged.
#ifndef LCP_CORE_SHARDED_ENGINE_HPP_
#define LCP_CORE_SHARDED_ENGINE_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/shard_transport.hpp"
#include "core/worker_pool.hpp"

namespace lcp {

struct ShardedEngineOptions {
  /// Shard (and lane) count; 0 picks std::thread::hardware_concurrency().
  int shards = 0;
  /// Node -> shard map; defaults to RangePartitioner.  The partition is
  /// re-bound on every full rebuild and must stay stable between rebuilds.
  std::shared_ptr<Partitioner> partitioner;
  /// Halo channel; defaults to InProcessTransport.
  std::shared_ptr<ShardTransport> transport;
  /// Verify the tracker's state fingerprint against a full recompute on
  /// every tracker-path run (O(n + m + proof bits)); sessions and benches
  /// turn this off because they own the mutation channel.
  bool verify_state = true;
};

class ShardedEngine final : public ExecutionEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::string name() const override { return "sharded"; }

  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Consumes the tracker's dirty log (returns true); attaching resets the
  /// shard state — the tracker's generation becomes the engine's clock.
  bool attach_tracker(DeltaTracker* tracker) override;
  DeltaTracker* attached_tracker() const override { return tracker_; }

  /// Registers "engine.sharded.*" (the Stats counters),
  /// "transport.halo.*" traffic gauges, per-lane "pool.sharded.*" busy
  /// time, and one "engine.sharded.shard<k>.last_dirty" gauge per shard.
  /// Gauges that need the resolved configuration (lanes, shard count)
  /// appear lazily on the first run.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Emits halo-exchange, lane-dispatch, and (via the transport)
  /// per-message send events while attached.
  void attach_journal(obs::Journal* journal) override;
  obs::Journal* attached_journal() const override { return journal_; }

  /// The resolved shard count (options.shards, or hardware concurrency).
  int shard_count() const;
  const Partitioner& partitioner() const { return *partitioner_; }
  const ShardTransport& transport() const { return *transport_; }

  struct Stats {
    std::uint64_t full_sweeps = 0;       ///< complete partition+halo rebuilds
    std::uint64_t incremental_runs = 0;  ///< delta-driven runs
    std::uint64_t unchanged_runs = 0;    ///< no records: cached verdicts
    std::uint64_t fallbacks = 0;         ///< fingerprint/log forced rebuilds
    std::uint64_t nodes_reverified = 0;  ///< accept() calls on delta paths
    /// Always 0: views are no longer patched.  Kept until the benchmark
    /// retires its per-layer patch rows.
    std::uint64_t views_patched = 0;
    /// Always 0, as views_patched.
    std::uint64_t patch_fallbacks = 0;
    std::uint64_t reextractions = 0;     ///< centres re-extracted on deltas
    std::uint64_t halo_rebuilds = 0;     ///< per-shard ghost re-exchanges
    std::uint64_t shards_woken = 0;      ///< lanes touched across delta runs
    /// Dirty centres per shard on the most recent incremental run.
    std::vector<std::size_t> last_dirty_per_shard;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Shard;

  void ensure_configured();
  void invalidate();
  RunResult run_impl(const Graph& g, const Proof& p, const LocalVerifier& a);
  RunResult result_from_rejects(const Graph& g) const;
  RunResult full_rebuild(const Graph& g, const Proof& p,
                         const LocalVerifier& a);
  RunResult run_tracker_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);
  RunResult run_content_path(const Graph& g, const Proof& p,
                             const LocalVerifier& a);

  // Coordinator-side routing of one graph delta / proof epicentre.
  void route_delta(const Graph& g, const ViewDelta& d, int radius);
  void route_proofs(const Graph& g, const Proof& p,
                    const std::vector<int>& hosts);

  // Halo discovery: r rounds of request/serve/integrate over the
  // transport for the shards listed in `rebuild` (lanes run in parallel;
  // every lane serves requests even when not rebuilding).
  void exchange_halos(const Graph& g, const Proof& p, int radius,
                      const std::vector<int>& rebuild);
  void reset_shard_skeleton(const Graph& g, const Proof& p, Shard& shard);

  // Lane-side work.
  void lane_sweep(const LocalVerifier& a, Shard& shard);
  void lane_incremental(const Proof& p, const LocalVerifier& a, int radius,
                        Shard& shard);
  void dispatch_lanes(const std::function<void(int)>& job);
  void reset_run_state();
  /// Runs the touched lanes and folds their counters into Stats; returns
  /// the number of centres re-verified.
  std::uint64_t run_lanes(const Proof& p, const LocalVerifier& a,
                          int radius);

  /// Registers the gauges that need the resolved configuration (pool,
  /// transport, per-shard); called from attach_telemetry when already
  /// configured and from ensure_configured otherwise.
  void register_runtime_metrics();

  ShardedEngineOptions options_;
  std::shared_ptr<Partitioner> partitioner_;
  std::shared_ptr<ShardTransport> transport_;
  std::unique_ptr<WorkerPool> pool_;
  DeltaTracker* tracker_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  VerdictAttribution attribution_;
  int k_ = 0;  // resolved shard count (0 until first run)

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> owner_;  // host index -> shard

  bool cache_valid_ = false;
  bool cache_from_tracker_ = false;
  const LocalVerifier* cached_verifier_ = nullptr;
  int cached_radius_ = -1;
  int host_n_ = 0;  // node count the shard verdicts cover
  std::uint64_t cached_graph_fp_ = 0;
  bool cached_graph_fp_valid_ = false;
  std::uint64_t consumed_generation_ = 0;
  std::vector<BitString> last_proofs_;  // exact copy for the content diff

  // Coordinator scratch.
  std::vector<int> proof_hosts_;
  std::vector<std::uint64_t> proof_seen_;
  std::uint64_t proof_epoch_ = 0;

  Stats stats_;
};

/// Parses an engine-factory spec — "sharded", "sharded:K", or
/// "sharded:K:PART" with PART in {range, hash} — into options; throws
/// std::invalid_argument on anything else.  Shared by make_engine and
/// VerificationSession::Builder::engine(name).
ShardedEngineOptions parse_sharded_spec(std::string_view name);

}  // namespace lcp

#endif  // LCP_CORE_SHARDED_ENGINE_HPP_
