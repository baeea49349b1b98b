// Pluggable execution engines for whole-graph verifier runs.
//
// The paper's acceptance predicate quantifies over every node: A(G, P, v)
// must be evaluated at all v (Section 2.1).  How that sweep is executed is
// an engineering choice independent of the semantics, so it is factored
// into an ExecutionEngine interface with interchangeable backends:
//
//   - DirectEngine: sequential induced-ball extraction through a reusable
//     ViewExtractor, plus an optional view cache keyed on the host graph's
//     fingerprint and the verifier radius — repeated runs over the same
//     graphs (exhaustive proof search, gluing/symmetry attack loops) reuse
//     the extracted balls and only refresh proof labels.  The cache holds
//     several graphs (LRU), so loops that alternate between two instances
//     (the gluing attack's C(a,b) pairs) don't thrash it.
//   - MessagePassingEngine (local/message_passing.hpp): explicit LOCAL-model
//     flooding rounds; the reference semantics for the equivalence tests.
//   - ParallelEngine: shards nodes across a persistent worker pool.  Views
//     are read-only over const Graph&/const Proof&, so the sweep is
//     embarrassingly parallel; results are deterministic and identical to
//     DirectEngine's.
//   - IncrementalEngine (core/incremental.hpp): caches per-node verdicts
//     and, fed graph/proof deltas through a DeltaTracker (core/delta.hpp),
//     re-verifies only the nodes whose balls intersect the change.
//
// All engines must produce bit-identical RunResults on the same input; the
// differential oracle in tests/test_engine_oracle.cpp holds every engine
// to the plain reference sweep (sweep_sequential).
#ifndef LCP_CORE_ENGINE_HPP_
#define LCP_CORE_ENGINE_HPP_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ball_store.hpp"
#include "core/proof.hpp"
#include "core/verifier.hpp"
#include "core/view.hpp"
#include "core/worker_pool.hpp"
#include "graph/graph.hpp"

namespace lcp {

class DeltaTracker;

namespace obs {
struct Telemetry;
class Journal;
}  // namespace obs

/// The global outcome of one verifier execution.
///
/// `all_accept`/`rejecting` are the paper's semantics and must be
/// bit-identical across engines (tests/test_engine_oracle.cpp).  The remaining
/// fields are *attribution* for the diagnosis tier (obs/forensics.hpp):
/// how much work the run did and which centres flipped since the engine's
/// previous run over the same (graph, verifier) binding.  Attribution is
/// deterministic but engine-specific (a cold engine knows no flips), so
/// equivalence tests compare only the first two fields.
struct RunResult {
  bool all_accept = true;
  std::vector<int> rejecting;  // dense indices of nodes that output 0

  /// Verifier evaluations attributable to this run (n for full sweeps,
  /// the dirty-set size for incremental runs, 0 for unchanged runs).
  std::uint64_t evaluated = 0;
  /// True when the engine could diff this run's verdicts against its
  /// previous run (same graph object, same verifier); the flip lists
  /// below are only meaningful then.
  bool flips_known = false;
  /// Centres that flipped accept -> reject this run (ascending; a subset
  /// of `rejecting`).
  std::vector<int> newly_rejecting;
  /// Centres that flipped reject -> accept this run (ascending).
  std::vector<int> newly_accepting;
};

/// Diffs successive RunResults over one (graph, verifier) binding into
/// the flip lists above.  Engines hold one instance and call finish() at
/// the end of every run: O(|rejecting| + |previous rejecting|), no
/// per-node state, so it survives cache overflows and fallback sweeps —
/// exactly the paths that used to lose per-centre attribution.
class VerdictAttribution {
 public:
  /// Populates `result`'s flip fields against the previous run when the
  /// binding matches, then adopts `result` as the new baseline.
  void finish(const Graph& g, const LocalVerifier& a, RunResult* result);
  /// Forgets the baseline (next run reports flips_known == false).
  void reset() { valid_ = false; }

 private:
  const Graph* graph_ = nullptr;
  const LocalVerifier* verifier_ = nullptr;
  std::vector<int> last_rejecting_;
  bool valid_ = false;
};

/// Strategy interface: evaluate verifier `a` at every node of g under
/// proof p.  Engines may keep internal caches/scratch between runs, hence
/// the non-const run(); a single engine instance must not be shared across
/// threads without external synchronisation (engines may parallelise
/// internally, as ParallelEngine does).
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  /// Stable backend name ("direct", "message-passing", "parallel",
  /// "incremental").
  virtual std::string name() const = 0;

  virtual RunResult run(const Graph& g, const Proof& p,
                        const LocalVerifier& a) = 0;

  /// Offers a DeltaTracker as the mutation channel for subsequent runs
  /// (nullptr detaches).  Returns true when the engine will consume the
  /// tracker's dirty log (IncrementalEngine); the default backend ignores
  /// trackers and returns false.  Callers that attach a stack-local
  /// tracker must detach it before it dies (TrackerAttachment does).
  virtual bool attach_tracker(DeltaTracker* tracker) {
    (void)tracker;
    return false;
  }

  /// The tracker currently attached, if the engine consumes trackers.
  virtual DeltaTracker* attached_tracker() const { return nullptr; }

  /// Offers a telemetry sink (obs/telemetry.hpp); nullptr detaches.  An
  /// engine that opts in adapts its live Stats counters into the sink's
  /// MetricRegistry as derived gauges under "engine.<name>." (plus any
  /// pool/store/transport gauges it owns) and emits trace spans around its
  /// phases.  Implementations must withdraw their derived gauges — from
  /// the previously attached registry on re-attach/detach, and in their
  /// destructor — so a registry can safely outlive the engine.  The
  /// default backend ignores telemetry.
  virtual void attach_telemetry(obs::Telemetry* telemetry) {
    (void)telemetry;
  }

  /// The telemetry sink currently attached, if the engine consumes one.
  virtual obs::Telemetry* attached_telemetry() const { return nullptr; }

  /// Offers a flight-recorder journal (obs/journal.hpp); nullptr
  /// detaches.  An engine that opts in emits structured events (patch
  /// fallbacks, halo exchanges, lane dispatches, cache overflows) while
  /// attached.  The default backend ignores journals.
  virtual void attach_journal(obs::Journal* journal) { (void)journal; }

  /// The journal currently attached, if the engine consumes one.
  virtual obs::Journal* attached_journal() const { return nullptr; }
};

/// RAII attachment: offers a tracker to the engine for the current scope
/// and, on exit, restores whatever was attached before (so nested helpers
/// that borrow a caller's engine don't strip its tracker), which also
/// guarantees stack-local trackers never dangle inside the engine.
class TrackerAttachment {
 public:
  TrackerAttachment(ExecutionEngine& engine, DeltaTracker& tracker)
      : engine_(&engine),
        previous_(engine.attached_tracker()),
        attached_(engine.attach_tracker(&tracker)) {}
  ~TrackerAttachment() {
    if (attached_) engine_->attach_tracker(previous_);
  }
  TrackerAttachment(const TrackerAttachment&) = delete;
  TrackerAttachment& operator=(const TrackerAttachment&) = delete;

  /// True when the engine consumes the tracker's dirty log.
  bool consumed() const { return attached_; }

 private:
  ExecutionEngine* engine_;
  DeltaTracker* previous_;
  bool attached_;
};

/// A 64-bit structural fingerprint of a graph: ids, node labels, edges,
/// edge labels and weights.  Two graphs with equal fingerprints are treated
/// as identical by DirectEngine's view cache.
std::uint64_t graph_fingerprint(const Graph& g);

/// The plain sequential sweep every engine bottoms out in: a stack-local
/// extractor, no caching, re-entrant and stateless.  Shared by
/// DirectEngine's uncached/overflow paths, ParallelEngine's small-n path,
/// and IncrementalEngine's fallbacks, so the reference semantics live in
/// exactly one place.
RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a);

struct DirectEngineOptions {
  /// Keep extracted views between runs, keyed on (fingerprint, radius).
  bool cache_views = true;
  /// Drop LRU entries when the summed ball sizes across all cached graphs
  /// exceed this bound (protects against O(n^2) memory on dense graphs
  /// with large radii).
  std::size_t max_cached_ball_nodes = std::size_t{1} << 22;
  /// Number of distinct (graph, radius) entries kept; least recently used
  /// entries are evicted first.
  std::size_t max_cached_graphs = 4;
  /// Optional shared ball store (core/ball_store.hpp).  When set, the
  /// engine publishes the balls it extracts and adopts balls other engines
  /// published for the same (fingerprint, radius) — adoption shares the
  /// underlying views (copy-on-write), so a warm sweep by one engine makes
  /// the next engine's first run extraction-free.
  std::shared_ptr<BallStore> store = nullptr;
};

/// Counters for the tracker-assisted cache migration (see attach_tracker).
struct DirectEngineStats {
  std::uint64_t migrations = 0;      ///< entries rekeyed to a new fingerprint
  std::uint64_t migrated_views = 0;  ///< views kept or patched in place
  std::uint64_t migration_reextractions = 0;  ///< views rebuilt during one
};

/// The default backend: the seed's sequential semantics, re-implemented on
/// the batched ViewExtractor (single BFS per node, ball-local edge
/// assembly, reused scratch) with cross-run view caching.  The working set
/// holds refcounted balls: entries adopted from (or published to) a shared
/// BallStore alias the store's objects until the first proof refresh
/// diverges the touched ball via copy-on-write.
///
/// With a DeltaTracker attached (attach_tracker), a cache miss against the
/// tracker's bound graph no longer drops the stale entry: the dirty log
/// since the entry's generation is replayed over the cached views —
/// patching the balls the deltas touch in place, re-extracting only the
/// fallbacks — and the entry is rekeyed to the new fingerprint.  Mutating
/// loops (the transplant attacks, sessions) thus keep their warm cache
/// across every batch instead of rebuilding it from scratch.
class DirectEngine final : public ExecutionEngine {
 public:
  explicit DirectEngine(DirectEngineOptions options = {})
      : options_(std::move(options)) {}
  ~DirectEngine() override;

  std::string name() const override { return "direct"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Registers "engine.direct.*" (migration counters, cached_graphs) and,
  /// when a shared store is attached, "store.ball.*" derived gauges.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Emits patch-vs-reextract fallback and cache-overflow events while
  /// attached.
  void attach_journal(obs::Journal* journal) override { journal_ = journal; }
  obs::Journal* attached_journal() const override { return journal_; }

  /// Enables cache migration across fingerprints for the tracker's bound
  /// graph.  Returns true (the dirty log is consumed) when view caching is
  /// on; a non-caching engine has nothing to migrate and returns false.
  bool attach_tracker(DeltaTracker* tracker) override;
  DeltaTracker* attached_tracker() const override { return tracker_; }

  /// Migration counters (cumulative; for tests and benches).
  const DirectEngineStats& stats() const { return stats_; }

  /// Number of (graph, radius) entries currently cached (for tests and
  /// benches; the LRU policy is an implementation detail otherwise).
  std::size_t cached_graph_count() const { return cache_.size(); }

  /// The shared store, if one was attached (for tests).
  const std::shared_ptr<BallStore>& store() const { return options_.store; }

 private:
  struct CacheEntry {
    std::uint64_t fingerprint = 0;
    int radius = -1;
    std::size_t ball_nodes = 0;
    std::vector<BallPtr> views;
    // Tracker lineage: when tracker_synced, the views were extracted from
    // (or migrated to) the attached tracker's bound graph as of
    // tracker_generation, so records_since(tracker_generation) is a
    // complete account of how the graph diverged from this entry.
    std::uint64_t tracker_generation = 0;
    bool tracker_synced = false;
  };
  struct Overflow {
    std::uint64_t fingerprint = 0;
    int radius = -1;
  };

  CacheEntry* find_entry(std::uint64_t fingerprint, int radius);
  void evict_to_budget(std::size_t incoming_entries);
  RunResult run_from_entry(CacheEntry& entry, const Proof& p,
                           const LocalVerifier& a);
  /// Tries to migrate a tracker-synced entry to `fingerprint` by replaying
  /// the dirty log over its views.  Returns the rekeyed entry (moved to the
  /// cache front), or nullptr when no entry qualifies, the log was trimmed,
  /// the graph mutated out of band, or the migrated balls blow the budget
  /// (the entry is then dropped and the pair marked overflowed).
  CacheEntry* migrate_entry(const Graph& g, const Proof& p, int radius,
                            std::uint64_t fingerprint);
  void remember_overflow(std::uint64_t fingerprint, int radius);

  RunResult run_impl(const Graph& g, const Proof& p, const LocalVerifier& a);

  DirectEngineOptions options_;
  DeltaTracker* tracker_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  VerdictAttribution attribution_;
  DirectEngineStats stats_;
  ViewExtractor extractor_;
  std::list<CacheEntry> cache_;  // most recently used first
  std::size_t cached_ball_nodes_ = 0;
  // (graph, radius) pairs whose summed ball sizes exceeded the cap: such
  // graphs are swept uncached instead of rebuilding a doomed cache.
  std::vector<Overflow> overflow_;
  // Scratch for the batched accept path on cache hits.
  std::vector<const View*> batch_views_;
  std::vector<std::uint8_t> batch_out_;
};

/// Thread-pool backend: contiguous node ranges are verified concurrently,
/// one ViewExtractor per worker.  Rejecting nodes are concatenated in
/// shard order, so the RunResult is bit-identical to DirectEngine's.
/// Requires the verifier's accept() to be thread-safe (all in-repo
/// verifiers are).
///
/// The workers form a persistent pool, created lazily on the first
/// parallel run and reused until destruction.
class ParallelEngine final : public ExecutionEngine {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().  When `store`
  /// is set the engine publishes the balls its sweeps extract (it consumes
  /// nothing itself — the store hands its warmth to the caching engines),
  /// making a parallel sweep a cheap way to pre-warm an IncrementalEngine
  /// or DirectEngine sharing the same store.
  explicit ParallelEngine(int threads = 0,
                          std::shared_ptr<BallStore> store = nullptr);
  ~ParallelEngine() override;

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::string name() const override { return "parallel"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Registers "pool.parallel.*" lane gauges (once the persistent pool
  /// exists — registration is lazy, at pool creation) and "store.ball.*"
  /// when a store is attached.
  void attach_telemetry(obs::Telemetry* telemetry) override;
  obs::Telemetry* attached_telemetry() const override { return telemetry_; }

  /// Emits one lane-dispatch event per parallel run while attached.
  void attach_journal(obs::Journal* journal) override { journal_ = journal; }
  obs::Journal* attached_journal() const override { return journal_; }

  /// The worker count a run would use right now.
  int effective_threads(int n) const;

 private:
  RunResult run_impl(const Graph& g, const Proof& p, const LocalVerifier& a);

  int threads_;
  std::shared_ptr<BallStore> store_;
  std::unique_ptr<WorkerPool> pool_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  VerdictAttribution attribution_;
};

/// The process-wide engine for one-off sweeps: a DirectEngine with caching
/// off, so its run() is stateless, re-entrant, and retains no memory
/// between calls (the seed's run_verifier semantics).  Loops that
/// re-verify one graph under many proofs should hold their own caching
/// DirectEngine (or an IncrementalEngine) instead.
ExecutionEngine& default_engine();

/// Factory by backend name: "direct", "message-passing", "parallel",
/// "incremental", "sharded[:K[:PART]]" (K = shard count, PART = "range"
/// or "hash"), or "spotcheck[:BUDGET[:inner]]" (BUDGET in [0, 1]; inner
/// is any exact backend spec, default "incremental" — see
/// core/spot_check.hpp).  Throws std::invalid_argument on an unknown
/// name.  Defined in local/engine_factory.cpp so core/ stays independent
/// of local/.
std::unique_ptr<ExecutionEngine> make_engine(std::string_view name);

}  // namespace lcp

#endif  // LCP_CORE_ENGINE_HPP_
