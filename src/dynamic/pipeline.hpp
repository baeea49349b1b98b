// The dynamic serving pipeline: mutation -> proof repair -> dirty-ball
// re-verification, in one apply() call.
//
// DynamicPipeline is the historical name of this wiring; it is now a thin
// adapter over VerificationSession (core/session.hpp), which owns the live
// (Graph, Proof) pair and couples the three dynamic subsystems around it:
//
//        MutationBatch
//             v
//        DeltaTracker ──────────────── dirty log ───────┐
//         (applies ops, fingerprints state)             v
//             v                                  IncrementalEngine
//        ProofMaintainer ── repair batch ──> DeltaTracker (again)
//         (patches certificates locally)
//
// apply(batch) routes the graph mutations through the tracker, asks the
// bound ProofMaintainer for a certificate repair (another MutationBatch,
// also routed through the tracker so the dirty log sees it), and runs the
// incremental engine — total cost O(|delta| + |dirty balls|) instead of
// the O(n) reprove + O(n) full sweep of the static pipeline.  When the
// maintainer declines a batch (or no maintainer is bound), the session
// verifies the held proof as it stands and re-proves through the scheme
// only if that proof is rejected; either way it tries to rebind.
//
// Soundness is never delegated: the engine's verdict is computed by the
// scheme's own verifier over whatever assignment is current, so a buggy
// or declined repair can only cost performance (a rejection and a
// reprove), not a wrong accept.
//
// New code should build a VerificationSession directly — the facade also
// resolves schemes and maintainers by registry name and composes
// conjunction schemes; this adapter remains for callers that hand-wire a
// concrete Scheme + ProofMaintainer pair.
#ifndef LCP_DYNAMIC_PIPELINE_HPP_
#define LCP_DYNAMIC_PIPELINE_HPP_

#include <memory>

#include "core/incremental.hpp"
#include "core/scheme.hpp"
#include "core/session.hpp"
#include "dynamic/maintainer.hpp"

namespace lcp::dynamic {

using DynamicPipelineStats = SessionStats;

class DynamicPipeline {
 public:
  /// Takes ownership of the graph, proves the initial certificate through
  /// the scheme (a no-instance starts with an empty proof and a rejecting
  /// verdict), and binds the maintainer.  `scheme` must outlive the
  /// pipeline; `maintainer` may be null (every batch then verifies the
  /// held proof, and the scheme re-proves only when it is rejected).
  ///
  /// The engine's per-run state fingerprint check defaults OFF here: the
  /// session owns the pair and routes every mutation (user batches and
  /// repairs alike) through its tracker, so the O(n + m) re-hash per
  /// apply() would only re-verify the session's own invariant.  Callers
  /// that hand out mutable access to graph()/proof() some other way can
  /// pass {.verify_state = true} to restore the belt-and-braces check.
  ///
  /// `engine_options` also carries the incremental engine's view-patching
  /// toggle (on by default — repairs that rewrite node/edge labels patch
  /// the cached balls in place instead of re-extracting), the worker-pool
  /// sharding knobs for large dirty sets ({.shard_threads = k}), and an
  /// optional shared BallStore ({.store = ...}) so a pipeline can be
  /// warm-started by another engine's sweep of the same graph (see
  /// core/ball_store.hpp).  tests/test_dynamic_fuzz.cpp drives the full
  /// patching x sharding matrix through this constructor.
  DynamicPipeline(Graph graph, const Scheme& scheme,
                  std::unique_ptr<ProofMaintainer> maintainer,
                  IncrementalEngineOptions engine_options = {
                      .verify_state = false})
      : session_(VerificationSession::on(std::move(graph))
                     .scheme(scheme)
                     .engine(EngineKind::kIncremental)
                     .engine_options(std::move(engine_options))
                     .maintainer(std::move(maintainer))
                     .build()) {}

  // The underlying session's tracker holds references into the owned
  // graph/proof.
  DynamicPipeline(const DynamicPipeline&) = delete;
  DynamicPipeline& operator=(const DynamicPipeline&) = delete;

  /// Applies the batch, repairs the certificate assignment (or, without
  /// a repair, re-proves only if the held proof is rejected), and returns
  /// the incremental verification verdict.
  RunResult apply(const MutationBatch& batch) { return session_.apply(batch); }

  /// Re-verifies the current state without mutating (cheap: the engine's
  /// unchanged-state fast path).
  RunResult verify() { return session_.verify(); }

  const Graph& graph() const { return session_.graph(); }
  const Proof& proof() const { return session_.proof(); }
  const Scheme& scheme() const { return session_.scheme(); }
  DeltaTracker& tracker() { return session_.tracker(); }
  IncrementalEngine& engine() { return *session_.incremental_engine(); }
  ProofMaintainer* maintainer() { return session_.maintainer(); }
  bool maintainer_bound() const { return session_.maintainer_bound(); }
  const DynamicPipelineStats& stats() const { return session_.stats(); }

  /// The facade this pipeline adapts.
  VerificationSession& session() { return session_; }

 private:
  VerificationSession session_;
};

}  // namespace lcp::dynamic

#endif  // LCP_DYNAMIC_PIPELINE_HPP_
