// Dynamic maintenance of conjunction certificates (core/compose.hpp).
//
// A ConjunctionScheme's proof label is an offset-table concatenation of
// per-component labels, so its repair problem decomposes: ComposedMaintainer
// keeps a shadow copy of every component's proof slice, replays each
// applied graph batch into the per-component maintainers, and re-encodes
// the composed label of every node whose slice moved.
//
// Cross-component traffic: some maintainers repair *input* labels rather
// than proof labels (MatchingMaintainer re-emits the matched bit through
// set_edge_label).  Those repairs mutate the shared graph, so the other
// components must observe them; the dispatcher replays every component's
// graph-mutating repair ops into the other components' maintainers in
// follow-up rounds until the traffic quiesces.  Components that fight over
// the same labels (two matching maintainers on one bit) fail to quiesce
// within the round cap and the whole batch is declined — the session then
// verifies the held proof and re-proves if it is rejected, so convergence
// games can only cost performance, never a wrong verdict.
//
// Relay contract: relayed ops reach sibling maintainers *before* the
// shared graph reflects them (the session applies the combined repair
// batch only after repair() returns), so a receiving maintainer must take
// relayed values from the op itself, never by re-reading the graph.
// Edge-label/weight relays satisfy this for the in-repo maintainers (the
// tree and coloring maintainers ignore edge data; the matching maintainer
// reads op values + its pending set).  Node-label repairs are declined
// outright — maintainers legitimately re-read node labels from the graph
// (leader tracking), where a stale read could break completeness
// silently; declining costs at most one reprove instead.
//
// The decline contract matches the component maintainers': any out-of-band
// edit of the composed proof (a kProofLabel op in the applied batch)
// unbinds the maintainer until the next successful bind().
#ifndef LCP_DYNAMIC_COMPOSED_MAINTAINER_HPP_
#define LCP_DYNAMIC_COMPOSED_MAINTAINER_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compose.hpp"
#include "dynamic/maintainer.hpp"

namespace lcp::dynamic {

struct ComposedMaintainerStats {
  std::uint64_t repaired_batches = 0;
  std::uint64_t relay_rounds = 0;   ///< cross-component replay rounds run
  std::uint64_t relayed_ops = 0;    ///< graph repair ops relayed across parts
  std::uint64_t labels_emitted = 0; ///< composed labels re-encoded
};

class ComposedMaintainer final : public ProofMaintainer {
 public:
  /// One maintainer per scheme component, in component order; every slot
  /// must be non-null (resolution declines earlier otherwise).  `scheme`
  /// must outlive the maintainer.
  ComposedMaintainer(const ConjunctionScheme& scheme,
                     std::vector<std::unique_ptr<ProofMaintainer>> parts);

  std::string name() const override;
  bool bind(const Graph& g, const Proof& p) override;
  bool repair(const Graph& g, const Proof& p, const MutationBatch& applied,
              MutationBatch* out) override;

  const ComposedMaintainerStats& stats() const { return stats_; }
  ProofMaintainer& part(int i) { return *parts_[static_cast<std::size_t>(i)]; }

  /// Registers "maintainer.composed.*" derived gauges, then recurses into
  /// every part (each registers its own prefix under the same owner).
  void register_metrics(obs::MetricRegistry& registry,
                        const void* owner) override;

  /// Attaches the journal to itself and every part, so component repairs
  /// show up under their own labels alongside the composite's.
  void attach_journal(obs::Journal* journal) override;

 private:
  const ConjunctionScheme* scheme_;
  std::vector<std::unique_ptr<ProofMaintainer>> parts_;
  std::vector<Proof> slices_;  // shadow per-component proofs

  // Persistent epoch-marked dirty set (TreeCertMaintainer::touched_
  // pattern): repair() stays O(|dirty|), not O(n), per batch.
  std::vector<int> dirty_;
  std::vector<int> dirty_mark_;
  int dirty_epoch_ = 0;

  ComposedMaintainerStats stats_;
};

}  // namespace lcp::dynamic

#endif  // LCP_DYNAMIC_COMPOSED_MAINTAINER_HPP_
