// VerificationSession: the single entry point to the verification
// runtime.
//
// The subsystems that grew around the paper's static semantics — execution
// engines (core/engine.hpp), delta tracking (core/delta.hpp), incremental
// re-verification (core/incremental.hpp), and dynamic proof maintenance
// (src/dynamic/) — each have their own wiring, and before this facade
// every bench, example and test assembled them slightly differently.  A
// session owns the whole
// stack around one live (Graph, Proof) pair and is built fluently:
//
//   auto session = VerificationSession::on(std::move(graph))
//                      .scheme("leader-election & maximal-matching")
//                      .engine(EngineKind::kIncremental)
//                      .maintain(true)
//                      .build();
//   RunResult r = session.apply(batch);   // mutate -> repair -> verify
//
// scheme() accepts a registry expression (core/registry.hpp; '&' composes
// conjunctions via the scheme algebra in core/compose.hpp), an external
// const Scheme& the caller keeps alive, or an owned unique_ptr.
// maintain(true) resolves the right ProofMaintainer through the registry —
// including a ComposedMaintainer for conjunctions — and apply() then runs
// mutation -> certificate repair -> dirty-ball re-verification.  When no
// maintainer repaired the batch, the held proof is verified as it stands
// and the scheme's prover runs only if that verdict rejects.
// Soundness is never delegated: the verdict always comes from the
// scheme's verifier over the current assignment, so a buggy repair can
// only cost performance, never a wrong accept.
//
// Sessions are engine-agnostic: every mutation flows through the
// DeltaTracker, delta-consuming engines (incremental) re-verify dirty
// balls, and the other backends simply sweep fully with identical
// verdicts.
#ifndef LCP_CORE_SESSION_HPP_
#define LCP_CORE_SESSION_HPP_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/scheme.hpp"
#include "core/sharded_engine.hpp"
#include "core/spot_check.hpp"
#include "obs/forensics.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

namespace dynamic {
class ProofMaintainer;
}  // namespace dynamic

/// Execution backend selector for sessions; mirrors make_engine's names.
enum class EngineKind {
  kDirect,
  kMessagePassing,
  kParallel,
  kIncremental,
  kSharded,
  kSpotCheck,
};

struct SessionStats {
  std::uint64_t batches = 0;       ///< apply() calls
  std::uint64_t repaired = 0;      ///< batches healed by the maintainer
  std::uint64_t declined = 0;      ///< maintainer declines
  /// Full prover invocations.  The prover runs only after the held proof
  /// was rejected (a proof that every node accepts already certifies the
  /// configuration, Section 2.1), so accepting batches never count here.
  std::uint64_t reproves = 0;
  std::uint64_t failed_proves = 0; ///< reproves on no-instances (stale kept)
  std::uint64_t repair_ops = 0;    ///< total ops across all repair batches
  std::uint64_t verifies = 0;      ///< engine runs (apply, reprove, verify)

  // Spot-check error accounting, mirrored from the engine after every run
  // (all zero on exact backends): how many dirty balls were verified vs
  // deliberately skipped, how often a sampled rejection (or audit)
  // escalated to an exact sweep, and the worst-case probability that an
  // outstanding skipped ball hides a wrong verdict right now.
  std::uint64_t spot_sampled = 0;     ///< balls spot-verified
  std::uint64_t spot_skipped = 0;     ///< dirty balls left unverified
  std::uint64_t spot_escalations = 0; ///< escalations to the inner engine
  double spot_miss_bound = 0.0;       ///< outstanding miss-probability bound
};

/// A digest of the session's latency telemetry (empty when telemetry is
/// off): nearest-rank percentiles of apply() wall time plus a per-phase
/// breakdown, all in microseconds.  The full registry (engine counters,
/// pool lanes) is reachable through telemetry_sink().
struct SessionTelemetry {
  struct Phase {
    std::string name;       ///< "mutate", "repair", "reprove", "verify"
    std::uint64_t count = 0;
    double total_us = 0;
    double p99_us = 0;
  };
  bool enabled = false;
  std::uint64_t applies = 0;
  double apply_p50_us = 0;
  double apply_p90_us = 0;
  double apply_p99_us = 0;
  std::vector<Phase> phases;
};

class VerificationSession {
 public:
  class Builder {
   public:
    explicit Builder(Graph graph);
    ~Builder();  // out of line: maintainer_'s type is incomplete here
    Builder(Builder&&) noexcept;

    /// A registry expression: a registered name, or names joined with
    /// '&' for a conjunction.  Resolved at build() time against the
    /// final registry() choice (builtin_registry() by default), so setter
    /// order does not matter.
    Builder& scheme(std::string_view expr);
    /// Uses a caller-owned scheme; it must outlive the session.
    Builder& scheme(const Scheme& external);
    /// Adopts ownership of a scheme instance.
    Builder& scheme(std::unique_ptr<Scheme> owned);

    Builder& engine(EngineKind kind);
    /// Backend by make_engine name ("direct", "message-passing",
    /// "parallel", "incremental", "sharded[:K[:PART]]",
    /// "spotcheck[:BUDGET[:inner]]").
    Builder& engine(std::string_view backend);

    /// Resolve a ProofMaintainer for the scheme through the registry and
    /// repair certificates on apply() instead of reproving.
    Builder& maintain(bool on = true);
    /// Binds an explicit maintainer instead of resolving one.
    Builder& maintainer(std::unique_ptr<dynamic::ProofMaintainer> m);

    /// Options for the incremental backend.  verify_state defaults OFF:
    /// the session owns the pair and routes every mutation through its
    /// tracker.
    Builder& engine_options(IncrementalEngineOptions options);

    /// Options for the sharded backend.  verify_state is forced OFF at
    /// build() for the same reason.
    Builder& sharded_options(ShardedEngineOptions options);

    /// Options for the spot-check backend (seed, weights, budget).
    /// Overrides the budget parsed from an engine("spotcheck:...") spec;
    /// the inner backend still comes from the spec (default incremental,
    /// which honours engine_options()).
    Builder& spotcheck_options(SpotCheckOptions options);

    /// Registry used by scheme(expr) and maintain(); defaults to
    /// builtin_registry().
    Builder& registry(const SchemeRegistry& registry);

    /// Attaches a telemetry bundle (obs/telemetry.hpp): apply() phases
    /// record latency histograms and trace spans, the engine adapts its
    /// counters into the bundle's MetricRegistry, and the maintainer (if
    /// any) registers its repair counters.  Sharing one bundle across
    /// sessions aggregates them.
    Builder& telemetry(std::shared_ptr<obs::Telemetry> sink);
    /// Convenience: telemetry(true) creates a fresh private bundle;
    /// telemetry(false) (the default) disables instrumentation — verdicts
    /// and fingerprints are bit-identical either way.
    Builder& telemetry(bool on);

    /// Attaches a flight-recorder journal (obs/journal.hpp) to the whole
    /// stack: the session's apply() pipeline, the engine (and its
    /// transport, for the sharded backend), and the
    /// maintainer all emit structured events into it.  Sharing one
    /// journal across sessions interleaves them (events carry labels).
    Builder& journal(std::shared_ptr<obs::Journal> journal);
    /// Convenience: journal(true) creates a fresh private journal;
    /// journal(false) (the default) emits nothing — verdicts and
    /// fingerprints are bit-identical either way.
    Builder& journal(bool on);

    /// Enables rejection forensics: apply() snapshots the pre-batch
    /// state, and on an accept -> reject flip captures a RejectionReport
    /// (witness balls, minimal rejecting sub-batch, repair history, the
    /// journal tail) surfaced via last_rejection().  Forensics is
    /// read-only over the session — verdicts, proof labels, and
    /// fingerprints are bit-identical with it on or off.
    Builder& forensics(bool on = true);
    /// Same, with explicit capture budgets.
    Builder& forensics(obs::ForensicsOptions options);

    /// Finalises the session.  Throws std::invalid_argument when no
    /// scheme was set (or an expression failed to resolve).
    VerificationSession build();

   private:
    friend class VerificationSession;
    Graph graph_;
    std::string scheme_expr_;  // resolved at build() time
    const Scheme* external_scheme_ = nullptr;
    std::unique_ptr<Scheme> owned_scheme_;
    EngineKind kind_ = EngineKind::kIncremental;
    bool maintain_ = false;
    std::unique_ptr<dynamic::ProofMaintainer> maintainer_;
    IncrementalEngineOptions incremental_options_{.verify_state = false};
    ShardedEngineOptions sharded_options_;
    std::string engine_spec_ = "incremental";  // as given to engine()
    std::string spotcheck_spec_ = "spotcheck";
    std::optional<SpotCheckOptions> spotcheck_options_;
    const SchemeRegistry* registry_ = nullptr;
    std::shared_ptr<obs::Telemetry> telemetry_;
    std::shared_ptr<obs::Journal> journal_;
    bool forensics_ = false;
    obs::ForensicsOptions forensics_options_;
  };

  /// Starts a builder over the graph the session will own.
  static Builder on(Graph graph);

  ~VerificationSession();

  // The tracker holds references into the owned graph/proof; the session
  // is pinned to its construction address.
  VerificationSession(const VerificationSession&) = delete;
  VerificationSession& operator=(const VerificationSession&) = delete;

  /// Applies the batch through the tracker, lets a bound maintainer
  /// repair the certificate assignment, and returns the verification
  /// verdict.
  ///
  /// Without a repair, the held proof is verified first and the scheme's
  /// full prover runs only if that verdict rejects; the fresh proof's diff
  /// then goes through the tracker and the engine runs once more.  This
  /// is sound and loses nothing: by Section 2.1 a proof every node
  /// accepts already certifies the property, and the paper's provers are
  /// complete, so re-proving an accepted configuration could only change
  /// proof bits, never the verdict.  A failed prove (a no-instance) keeps
  /// the stale proof and its REJECT.  Only the final verdict reaches the
  /// journal and forensics; a held proof's rejection that the prover heals
  /// is not a verdict flip.  On the spot-check tier the first verdict is a
  /// sampled ACCEPT or an escalated exact REJECT, so re-proving follows
  /// only an exact REJECT.  A maintainer that declined earlier is rebound
  /// to the held proof whenever that proof still verifies.
  ///
  /// Concurrency contract (relied on by the session server): a session
  /// is a single-caller object — at most one thread may be inside
  /// apply() / verify() at a time, and the read accessors below are only
  /// stable while no apply is in flight.  Callers that share a session
  /// across threads must serialise externally (the server holds one
  /// apply mutex per session).  Debug builds assert on overlapping
  /// calls.
  RunResult apply(const MutationBatch& batch);

  /// Verifies the current state without mutating (cheap on the
  /// incremental backend: the unchanged-state fast path).  It never
  /// re-proves: if a spot-check ACCEPT skipped a ball the held proof
  /// fails, an audit here reports that exact REJECT; only an apply()
  /// whose run rejects re-proves.  Same concurrency contract as apply().
  RunResult verify();

  const Graph& graph() const { return graph_; }
  const Proof& proof() const { return proof_; }
  const Scheme& scheme() const { return *scheme_; }
  DeltaTracker& tracker() { return *tracker_; }
  ExecutionEngine& engine() { return *engine_; }
  /// The concrete incremental engine — also set when the spot-check
  /// backend wraps an incremental inner — or nullptr otherwise.
  IncrementalEngine* incremental_engine() { return incremental_; }
  /// The spot-check engine, or nullptr on exact backends.  Exposes
  /// request_audit() and the per-session error accounting.
  SpotCheckEngine* spot_check_engine() { return spot_; }
  dynamic::ProofMaintainer* maintainer() { return maintainer_.get(); }
  bool maintainer_bound() const { return bound_; }
  const SessionStats& stats() const { return stats_; }
  /// The make_engine spelling the session was built with, exactly as
  /// given to Builder::engine ("incremental", "sharded:4",
  /// "spotcheck:0.01:direct", ...); the kind's bare name ("sharded") when
  /// it was chosen by EngineKind.  When spotcheck_options() overrides the
  /// spelled budget, the name carries the budget the tier samples at
  /// ("spotcheck:1:sharded:2").  For reports and server stats.
  const std::string& engine_name() const { return engine_name_; }

  /// The attached telemetry bundle, nullptr when disabled.  The registry
  /// snapshot (telemetry_sink()->snapshot_json()) carries every layer:
  /// session phases, engine counters, pool lanes.
  obs::Telemetry* telemetry_sink() { return telemetry_.get(); }
  /// Percentile apply latency and per-phase breakdown; `enabled` is false
  /// (and everything zero) when no telemetry is attached.
  SessionTelemetry telemetry() const;

  /// The attached flight recorder, nullptr when disabled.
  obs::Journal* journal() { return journal_.get(); }
  bool forensics_enabled() const { return forensics_; }
  /// The forensic record of the most recent accept -> reject flip seen by
  /// apply(); nullopt until one happens (or forensics is off).  Stays set
  /// until the next flip or clear_last_rejection().
  const std::optional<obs::RejectionReport>& last_rejection() const {
    return last_rejection_;
  }
  void clear_last_rejection() { last_rejection_.reset(); }

 private:
  explicit VerificationSession(Builder&& b);

  // Enforcement of the one-apply-at-a-time contract: the flag is
  // maintained in all builds (layout and behaviour don't depend on
  // NDEBUG); only the assert on it compiles away in release.
  class ApplyScope;
  std::atomic<bool> in_apply_{false};

  /// Full-prover fallback; when `applied_diff` is non-null it receives
  /// the proof diff that was applied (empty on a failed prove).
  void reprove(MutationBatch* applied_diff);
  /// One instrumented engine run over the current pair.
  RunResult run_engine();
  void note_repair(std::uint64_t batch_index, std::string source,
                   const MutationBatch& repair);
  /// Feeds the repair's touched nodes to the spot-check engine (repair
  /// epicentres get an importance boost) and no-ops on exact backends.
  void spot_note_repair(const MutationBatch& repair);
  /// Mirrors the spot-check engine's error accounting into stats_ after a
  /// run; no-op on exact backends.
  void sync_spot_stats();
  void finish_verdict(const MutationBatch& batch,
                      const MutationBatch& repair, const Graph* pre_graph,
                      const Proof* pre_proof, const RunResult& result);

  // Declared first so it is destroyed last: the engine's destructor (and
  // the session's own) withdraw their derived gauges from this registry.
  std::shared_ptr<obs::Telemetry> telemetry_;
  // Phase histograms, owned by the registry (stable addresses); null when
  // telemetry is off.
  obs::LatencyHistogram* hist_apply_ = nullptr;
  obs::LatencyHistogram* hist_mutate_ = nullptr;
  obs::LatencyHistogram* hist_repair_ = nullptr;
  obs::LatencyHistogram* hist_reprove_ = nullptr;
  obs::LatencyHistogram* hist_verify_ = nullptr;

  Graph graph_;
  Proof proof_;
  std::unique_ptr<Scheme> owned_scheme_;
  const Scheme* scheme_ = nullptr;
  std::unique_ptr<ExecutionEngine> engine_;
  IncrementalEngine* incremental_ = nullptr;  // engine_, when incremental
  SpotCheckEngine* spot_ = nullptr;  // engine_, when spot-check
  std::unique_ptr<DeltaTracker> tracker_;
  std::unique_ptr<dynamic::ProofMaintainer> maintainer_;
  bool bound_ = false;
  SessionStats stats_;

  // Flight recorder + forensics (both default-off).
  std::shared_ptr<obs::Journal> journal_;
  bool forensics_ = false;
  obs::ForensicsOptions forensics_options_;
  std::string engine_name_;  // make_engine spelling, for reports
  bool last_all_accept_ = true;
  std::optional<obs::RejectionReport> last_rejection_;
  // Recent repairs with the nodes they touched, so a report can count
  // each repair's ops on the now-rejecting centres.
  struct RepairNote {
    obs::RepairHistoryEntry entry;
    std::vector<int> touched;  // sorted, deduplicated
  };
  std::deque<RepairNote> repair_notes_;
};

}  // namespace lcp

#endif  // LCP_CORE_SESSION_HPP_
