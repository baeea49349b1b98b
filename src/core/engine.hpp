// Pluggable execution engines for whole-graph verifier runs.
//
// The paper's acceptance predicate quantifies over every node: A(G, P, v)
// must be evaluated at all v (Section 2.1).  How that sweep is executed is
// an engineering choice independent of the semantics, so it is factored
// into an ExecutionEngine interface with interchangeable backends:
//
//   - DirectEngine: the stateless sequential sweep — one BFS per node into
//     a reused flat view (core/view.hpp), nothing kept between runs.
//   - MessagePassingEngine (local/message_passing.hpp): explicit LOCAL-model
//     flooding rounds; the reference semantics for the equivalence tests.
//   - ParallelEngine: the same sweep with contiguous node ranges on a
//     persistent worker pool, one reused extractor per lane.  Views are
//     read-only over const Graph&/const Proof&, so the sweep is
//     embarrassingly parallel; results are deterministic and identical to
//     DirectEngine's.
//   - IncrementalEngine (core/incremental.hpp): keeps per-node verdicts
//     and, fed graph/proof deltas through a DeltaTracker (core/delta.hpp),
//     re-extracts and re-verifies only the centres whose balls the change
//     touched.
//
// No engine caches views: by ball symmetry the centres a change can flip
// are the radius-r BFS around it, and a flat extraction costs about as
// much as the bookkeeping a cache needs to stay exact.
//
// All engines must produce bit-identical RunResults on the same input; the
// differential oracle in tests/test_engine_oracle.cpp holds every engine
// to the plain reference sweep (sweep_sequential).
#ifndef LCP_CORE_ENGINE_HPP_
#define LCP_CORE_ENGINE_HPP_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

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
/// per-node state, so it survives fallback sweeps.
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
/// proof p.  Engines may keep verdicts/scratch between runs, hence
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
  /// pool/transport gauges it owns) and emits trace spans around its
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
  /// detaches.  An engine that opts in emits structured events (halo
  /// exchanges, lane dispatches) while attached.  The default backend
  /// ignores journals.
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
/// edge labels and weights.  IncrementalEngine's content path keys its
/// verdicts on it.
std::uint64_t graph_fingerprint(const Graph& g);

/// Per-thread scratch for evaluating a verifier at many centres: one
/// ViewExtractor plus a small chunk of reused flat views, so accept_batch
/// sees materialised views and a warm instance allocates nothing per
/// ball.  Not thread-safe: engines keep one per thread.
class CentreVerifier {
 public:
  /// out[i] = A(g, p, centre_at(i)) ? 1 : 0 for i in [0, count), in order.
  template <class CentreAt>
  void verify(const Graph& g, const Proof& p, const LocalVerifier& a,
              std::size_t count, CentreAt centre_at, std::uint8_t* out) {
    extractor_.bind(g);
    const int radius = a.radius();
    for (std::size_t base = 0; base < count; base += kChunk) {
      const std::size_t k = std::min(kChunk, count - base);
      for (std::size_t i = 0; i < k; ++i) {
        extractor_.extract_into(p, centre_at(base + i), radius, views_[i]);
        ptrs_[i] = &views_[i];
      }
      a.accept_batch(ptrs_.data(), k, out + base);
    }
  }

  /// The contiguous centres [lo, hi): out[v - lo] is v's verdict.
  void verify_range(const Graph& g, const Proof& p, const LocalVerifier& a,
                    int lo, int hi, std::uint8_t* out) {
    verify(g, p, a, static_cast<std::size_t>(hi - lo),
           [lo](std::size_t i) { return lo + static_cast<int>(i); }, out);
  }

  /// The radius-r BFS around v in g (see ViewExtractor::ball_members).
  const std::vector<int>& ball_members(const Graph& g, int v, int radius) {
    extractor_.bind(g);
    return extractor_.ball_members(v, radius);
  }

 private:
  static constexpr std::size_t kChunk = 16;
  ViewExtractor extractor_;
  std::array<View, kChunk> views_;
  std::array<const View*, kChunk> ptrs_{};
};

/// The plain sequential sweep every engine bottoms out in, on the caller's
/// CentreVerifier.  DirectEngine is this sweep; the other engines use it
/// for small graphs and fallbacks, so the reference semantics live in
/// exactly one place.
RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a, CentreVerifier& lane);

/// As above on a stack-local CentreVerifier: re-entrant and stateless, at
/// the price of warming fresh scratch on every call.
RunResult sweep_sequential(const Graph& g, const Proof& p,
                           const LocalVerifier& a);

/// The default backend: the seed's sequential semantics on the flat
/// extractor (single BFS per node, ball-local edge assembly, reused
/// views).  It keeps no verdicts, only its warm CentreVerifier and flip
/// attribution.
class DirectEngine final : public ExecutionEngine {
 public:
  std::string name() const override { return "direct"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

 private:
  CentreVerifier lane_;
  // A verifier may itself call into the default engine; a nested run
  // sweeps on fresh scratch instead of the lane in use.
  bool in_run_ = false;
  VerdictAttribution attribution_;
};

/// Thread-pool backend: contiguous node ranges are verified concurrently,
/// one CentreVerifier per lane, reused across runs.  Rejecting nodes are
/// concatenated in shard order, so the RunResult is bit-identical to
/// DirectEngine's.  Requires the verifier's accept() to be thread-safe
/// (all in-repo verifiers are).
///
/// The workers form a persistent pool, created lazily on the first
/// parallel run and reused until destruction.
class ParallelEngine final : public ExecutionEngine {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency().
  explicit ParallelEngine(int threads = 0);
  ~ParallelEngine() override;

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::string name() const override { return "parallel"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override;

  /// Registers "pool.parallel.*" lane gauges (once the persistent pool
  /// exists — registration is lazy, at pool creation).
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
  std::unique_ptr<WorkerPool> pool_;
  std::vector<CentreVerifier> lanes_;  // one per worker
  std::vector<std::uint8_t> verdicts_;
  obs::Telemetry* telemetry_ = nullptr;
  obs::Journal* journal_ = nullptr;
  VerdictAttribution attribution_;
};

/// The process-wide engine for one-off sweeps: a DirectEngine, whose run()
/// retains no views between calls (the seed's run_verifier semantics).
/// Loops that re-verify one graph under many proofs should hold an
/// IncrementalEngine instead.
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
