// Delta-tracked mutations of a (Graph, Proof) pair.
//
// The paper's acceptance predicate is radius-local: A(G, P, v) depends only
// on v's r-ball, so when an attack loop or prover flips a few labels, only
// nodes whose balls intersect the change can change their verdict.  The
// delta API is the sanctioned mutation channel that makes this locality
// exploitable:
//
//   - MutationBatch records an ordered list of mutations (node labels,
//     edge labels/weights, proof labels, edge insertions/removals, node
//     additions);
//   - DeltaTracker binds a concrete (Graph, Proof) pair, applies batches
//     to it, and keeps two artefacts for consumers:
//       1. a dirty log: per batch, the proof/label epicentres plus — for
//          structural mutations — the exact set of centres whose
//          radius-`horizon` ball changes: those within `horizon` of BOTH
//          endpoints (pre-state for removals, post-state for insertions;
//          membership and distance changes need a path through the edge,
//          which puts both endpoints inside the ball).  The sets are
//          computed *stepwise* with BFS on the graph state at mutation
//          time, which is what makes interleaved add/remove/label
//          sequences sound: a centre whose ball is touched at any
//          intermediate state lands in some record's dirty set.
//       2. an XOR-homomorphic state fingerprint, updated in O(1) per
//          mutation, which IncrementalEngine (core/incremental.hpp)
//          compares against a full recompute to detect out-of-band
//          mutations and fall back to a full sweep.
//
// The node set may grow (add_node appends an isolated node with an empty
// proof label; follow with add_edge to attach it) but never shrink:
// removing nodes means starting a new tracking session.
#ifndef LCP_CORE_DELTA_HPP_
#define LCP_CORE_DELTA_HPP_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/bitstring.hpp"
#include "core/proof.hpp"
#include "core/view.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// One structural or label mutation of the host graph: a compact mirror
/// of MutationBatch::Op without the proof payload.  DeltaTracker records
/// one per applied op, in order, so consumers holding graph replicas (the
/// sharded engine's per-shard local graphs) can replay them.  `u`/`v` are
/// host dense indices; for kAddNode, `u` is the index the node received.
struct ViewDelta {
  enum class Kind {
    kNodeLabel,
    kEdgeLabel,
    kEdgeWeight,
    kAddEdge,
    kRemoveEdge,
    kAddNode,
  };
  Kind kind = Kind::kNodeLabel;
  int u = -1;
  int v = -1;
  std::uint64_t label = 0;
  std::int64_t weight = 0;
};

/// An ordered list of mutations against one (Graph, Proof) pair.  Edges are
/// addressed by their endpoints' dense indices (edge indices are unstable
/// across removals).  Mutations are applied in recording order.
///
/// The op list is readable (ops()): DeltaTracker replays it against the
/// bound pair, and the dynamic ProofMaintainers (src/dynamic/) replay it
/// against their shadow state to derive proof repairs.
class MutationBatch {
 public:
  enum class Kind {
    kNodeLabel,
    kEdgeLabel,
    kEdgeWeight,
    kProofLabel,
    kAddEdge,
    kRemoveEdge,
    kAddNode,
  };
  struct Op {
    Kind kind = Kind::kNodeLabel;
    int u = -1;  // node / first endpoint; the new dense index for kAddNode
                 // is implied (the node count at application time)
    int v = -1;  // second endpoint; unused for node-indexed ops
    std::uint64_t label = 0;
    std::int64_t weight = 0;
    BitString bits;  // kProofLabel only
    NodeId id = 0;   // kAddNode only
  };

  void set_node_label(int v, std::uint64_t label) {
    Op& op = push(Kind::kNodeLabel);
    op.u = v;
    op.label = label;
  }
  void set_edge_label(int u, int v, std::uint64_t label) {
    Op& op = push(Kind::kEdgeLabel);
    op.u = u;
    op.v = v;
    op.label = label;
  }
  void set_edge_weight(int u, int v, std::int64_t weight) {
    Op& op = push(Kind::kEdgeWeight);
    op.u = u;
    op.v = v;
    op.weight = weight;
  }
  void set_proof_label(int v, BitString bits) {
    Op& op = push(Kind::kProofLabel);
    op.u = v;
    op.bits = std::move(bits);
  }
  void add_edge(int u, int v, std::uint64_t label = 0,
                std::int64_t weight = 1) {
    Op& op = push(Kind::kAddEdge);
    op.u = u;
    op.v = v;
    op.label = label;
    op.weight = weight;
  }
  void remove_edge(int u, int v) {
    Op& op = push(Kind::kRemoveEdge);
    op.u = u;
    op.v = v;
  }
  /// Appends an isolated node with the given unique id and input label; its
  /// proof label starts empty.  Its dense index is the node count at the
  /// moment the op is applied, so a batch may attach it right away:
  /// batch.add_node(id); batch.add_edge(g.n(), 0);
  void add_node(NodeId id, std::uint64_t label = 0) {
    Op& op = push(Kind::kAddNode);
    op.label = label;
    op.id = id;
  }

  /// Concatenates another batch's ops after this one's, preserving both
  /// recording orders.  Applying the result equals applying the two
  /// batches back-to-back — the admission coalescer in src/server/ relies
  /// on exactly this to merge queued client batches into one apply().
  void append(const MutationBatch& other) {
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  }

  bool empty() const { return ops_.empty(); }
  std::size_t size() const { return ops_.size(); }
  void clear() { ops_.clear(); }
  const std::vector<Op>& ops() const { return ops_; }

 private:
  Op& push(Kind kind) {
    ops_.emplace_back();
    ops_.back().kind = kind;
    return ops_.back();
  }

  std::vector<Op> ops_;
};

/// One applied batch, as consumers see it.
struct DirtyRecord {
  /// The tracker generation *after* this batch was applied.
  std::uint64_t generation = 0;
  /// Nodes whose proof label changed (only the centres whose balls hold
  /// them can change verdict).
  std::vector<int> proof_nodes;
  /// Nodes incident to a node-label / edge-label / edge-weight change
  /// (containing centres must re-extract their view).
  std::vector<int> relabeled_nodes;
  /// Centres whose radius-`horizon` ball changed under edge insertions/
  /// removals: those whose ball contains both endpoints, expanded by the
  /// tracker's stepwise BFS (sorted, deduplicated).  These centres must
  /// re-extract; label and proof epicentres dirty the radius-r BFS around
  /// them instead (ball symmetry: u is in B_r(c) iff c is in B_r(u)).
  std::vector<int> structural_dirty;
  /// Dense indices of nodes appended by this batch (ascending).  They are
  /// also members of structural_dirty; consumers with per-node caches must
  /// grow them before processing the dirty sets.
  std::vector<int> added_nodes;
  /// The batch's graph mutations in application order (proof flips are
  /// omitted — proof_nodes carries them).  Consumers holding graph
  /// replicas replay these; the sorted dirty sets above name the centres
  /// whose verdicts may change.
  std::vector<ViewDelta> deltas;
};

/// Binds a (Graph, Proof) pair and applies MutationBatches to it while
/// maintaining the dirty log and the state fingerprint.  The const-graph
/// overload supports proof-only sessions (e.g. exhaustive proof search);
/// applying a graph mutation through it throws std::logic_error.
class DeltaTracker {
 public:
  /// `horizon` bounds the verifier radii this tracker can serve: structural
  /// dirty sets are BFS-expanded to this depth.  Engines with a larger
  /// radius must ignore the tracker and sweep fully.
  DeltaTracker(Graph& g, Proof& p, int horizon);
  DeltaTracker(const Graph& g, Proof& p, int horizon);

  const Graph& graph() const { return *graph_; }
  Proof& proof() { return *proof_; }
  const Proof& proof() const { return *proof_; }
  int horizon() const { return horizon_; }

  /// Number of batches applied so far.
  std::uint64_t generation() const { return generation_; }

  /// XOR-homomorphic fingerprint of the bound (graph, proof) state,
  /// maintained incrementally.  Recomputable via state_fingerprint_of().
  std::uint64_t state_fingerprint() const { return fingerprint_; }

  /// Applies the batch to the bound graph/proof in recording order and
  /// appends one DirtyRecord to the log.  Throws (std::invalid_argument /
  /// std::logic_error) on malformed mutations; the graph/proof are left in
  /// the state reached up to the offending op, with the fingerprint and the
  /// record kept consistent with the applied prefix.
  void apply(const MutationBatch& batch);

  /// All records with generation > `since`, oldest first; std::nullopt when
  /// the log has been trimmed past `since` (consumer must resweep).
  std::optional<std::vector<const DirtyRecord*>> records_since(
      std::uint64_t since) const;

  /// Recomputes the fingerprint from the bound state; called by consumers
  /// after detecting (and recovering from) an out-of-band mutation.
  void resync();

  /// Full-state fingerprint of an arbitrary pair, for comparison against
  /// state_fingerprint().
  static std::uint64_t state_fingerprint_of(const Graph& g, const Proof& p);

 private:
  void mark_edge_ball_dirty(int u, int v, std::vector<int>* out);
  void finalize_record(DirtyRecord& record);

  const Graph* graph_ = nullptr;
  Graph* mutable_graph_ = nullptr;  // null in proof-only sessions
  Proof* proof_ = nullptr;
  int horizon_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t fingerprint_ = 0;

  std::deque<DirtyRecord> log_;
  std::uint64_t trimmed_through_ = 0;  // generations <= this were dropped

  // BFS scratch: mark_[v] == epoch_ means v was visited this wave.
  std::vector<int> mark_;
  std::vector<int> queue_;
  std::vector<int> depth_;
  int epoch_ = 0;
};

/// Appends to `batch` the mutations that morph `work`'s edges among the
/// dense-index block [lo, hi) into `target`'s: removals, insertions (with
/// the target's label/weight), and label/weight updates on edges present
/// in both.  The two graphs must have coinciding node layouts; edges with
/// an endpoint outside the block are not examined.  Shared by the
/// symmetry and 3-colourability transplant rewirings (src/lower/).
void diff_block_into_batch(const Graph& work, const Graph& target, int lo,
                           int hi, MutationBatch* batch);

/// Appends one set_proof_label per node whose label differs between
/// `current` and `target` (sizes must match).
void diff_proofs_into_batch(const Proof& current, const Proof& target,
                            MutationBatch* batch);

}  // namespace lcp

#endif  // LCP_CORE_DELTA_HPP_
