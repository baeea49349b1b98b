// The local view of a node: the triple (G[v,r], P[v,r], v).
//
// This is exactly what the paper's local verifier receives — the subgraph
// induced by the radius-r ball around v, the proof restricted to it, and the
// identity of v within it.  A verifier must not (and with this API cannot)
// read anything outside the view.
//
// The ball is a flat, read-only CSR graph (`Ball`) with Graph's read API,
// filled by one BFS into storage the caller may reuse.  Proof labels are
// not copied: a view extracted from a host reads them through the host's
// Proof.  **Lifetime rule:** such a view is valid while its host graph and
// proof are unchanged (and alive); it owns its structure, so it survives
// its extractor.  Callers that keep a view past a mutation call
// `View::own_proofs()` first.
#ifndef LCP_CORE_VIEW_HPP_
#define LCP_CORE_VIEW_HPP_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "core/bitstring.hpp"
#include "core/proof.hpp"
#include "graph/graph.hpp"

namespace lcp {

/// The radius-r ball as a flat CSR graph.  Node i is the i-th ball member
/// in BFS order (centre first); ids, node labels and edge data are the
/// host's.  Adjacency lists are id-sorted, exactly as in Graph, so port
/// numbers match the host's; each edge record keeps the host's
/// (edge_u, edge_v) orientation, which directed masks depend on
/// (graph/directed.hpp).  Edges are numbered by (smaller ball index, id of
/// the other endpoint).
class Ball {
 public:
  Ball() = default;
  /// A copy of `g` with the same node order, edge order and ports.
  explicit Ball(const Graph& g);

  int n() const { return static_cast<int>(ids_.size()); }
  int m() const { return static_cast<int>(edges_.size()); }

  NodeId id(int v) const { return ids_[static_cast<std::size_t>(v)]; }
  std::uint64_t label(int v) const {
    return labels_[static_cast<std::size_t>(v)];
  }
  /// Neighbours of v, sorted ascending by neighbour id.
  std::span<const HalfEdge> neighbors(int v) const {
    const auto at = static_cast<std::size_t>(v);
    return {half_.data() + offsets_[at],
            static_cast<std::size_t>(offsets_[at + 1] - offsets_[at])};
  }
  int degree(int v) const {
    const auto at = static_cast<std::size_t>(v);
    return offsets_[at + 1] - offsets_[at];
  }
  int neighbor_at_port(int v, int p) const {
    return neighbors(v)[static_cast<std::size_t>(p)].to;
  }

  /// Index of edge {u, v}, or -1 when absent (scans the shorter list).
  int edge_index(int u, int v) const;
  bool has_edge(int u, int v) const { return edge_index(u, v) >= 0; }
  int edge_u(int e) const { return edges_[static_cast<std::size_t>(e)].u; }
  int edge_v(int e) const { return edges_[static_cast<std::size_t>(e)].v; }
  std::uint64_t edge_label(int e) const {
    return edges_[static_cast<std::size_t>(e)].label;
  }
  std::int64_t edge_weight(int e) const {
    return edges_[static_cast<std::size_t>(e)].weight;
  }

  /// Ball index of the node with the given id.  A linear scan: balls are
  /// small and no verifier looks ids up on a hot path.
  std::optional<int> index_of(NodeId id) const;

  /// All ids, indexed by ball node.
  const std::vector<NodeId>& ids() const { return ids_; }

  /// A Graph with the same nodes, edges (order and orientation) and ports,
  /// for the algorithms that take one (Beineke search, relabelling).
  Graph to_graph() const;

  /// Representation equality: node order, ids, labels, adjacency and edge
  /// records.
  friend bool operator==(const Ball& a, const Ball& b);

 private:
  friend class BallBuilder;

  struct EdgeRecord {
    int u;
    int v;
    std::uint64_t label;
    std::int64_t weight;
  };

  std::vector<NodeId> ids_;
  std::vector<std::uint64_t> labels_;
  std::vector<int> offsets_{0};  // n + 1 prefix offsets into half_
  std::vector<HalfEdge> half_;   // 2m adjacency entries
  std::vector<EdgeRecord> edges_;
};

/// The proof restricted to a ball: a read-only range of BitStrings in ball
/// order.  Extracted views read the labels through the host Proof (one
/// pointer plus each member's host index; nothing is copied), so they
/// follow the lifetime rule above.  Views built by hand, or detached with
/// own_proofs(), hold their own labels instead.
class ProofLabels {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = BitString;
    using difference_type = std::ptrdiff_t;
    using pointer = const BitString*;
    using reference = const BitString&;

    iterator() = default;
    iterator(const ProofLabels* labels, std::size_t i)
        : labels_(labels), i_(i) {}
    reference operator*() const { return (*labels_)[i_]; }
    pointer operator->() const { return &(*labels_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const ProofLabels* labels_ = nullptr;
    std::size_t i_ = 0;
  };

  ProofLabels() = default;
  /// Owned labels, in ball order.
  explicit ProofLabels(std::vector<BitString> labels)
      : owned_(std::move(labels)) {}

  std::size_t size() const {
    return host_ != nullptr ? members_.size() : owned_.size();
  }
  const BitString& operator[](std::size_t i) const {
    return host_ != nullptr
               ? host_->labels[static_cast<std::size_t>(members_[i])]
               : owned_[i];
  }
  iterator begin() const { return iterator(this, 0); }
  iterator end() const { return iterator(this, size()); }

  /// Replaces the labels with owned ones, in ball order.
  void assign(std::vector<BitString> labels);
  /// Copies host-read labels into owned storage (no-op when already
  /// owned), so the view no longer depends on the host proof.
  void own();

  /// Host index of each ball member when the labels are read through a
  /// host proof; empty for owned labels.
  const std::vector<int>& host_members() const { return members_; }

  /// Elementwise equality, however each side stores its labels.
  friend bool operator==(const ProofLabels& a, const ProofLabels& b);

 private:
  friend class BallBuilder;

  const Proof* host_ = nullptr;
  std::vector<int> members_;  // ball index -> host index (host mode)
  std::vector<BitString> owned_;
};

/// A node's radius-r view.  `ball` preserves original ids, node labels and
/// edge data; `proofs[i]` is the proof label of ball node i; `dist[i]` is the
/// distance from the centre (equal to the distance in G, because shortest
/// paths to ball members stay inside the ball).
struct View {
  Ball ball;
  int center = 0;
  int radius = 0;
  ProofLabels proofs;
  std::vector<int> dist;

  /// A view over a copy of `ball` holding its own proof labels (ball
  /// order) — for callers that assemble views by hand (message passing,
  /// reference extractors, model translations).
  static View from_graph(const Graph& ball, int center, int radius,
                         std::vector<BitString> proofs,
                         std::vector<int> dist);

  /// Convenience accessors, all in ball indices.
  NodeId center_id() const { return ball.id(center); }
  const BitString& proof_of(int v) const {
    return proofs[static_cast<std::size_t>(v)];
  }
  int dist_of(int v) const { return dist[static_cast<std::size_t>(v)]; }

  /// Detaches the view from the host proof (see ProofLabels::own).
  void own_proofs() { proofs.own(); }

  /// True when the ball provably contains the whole connected component
  /// (every node is at distance < radius, so no edge can leave the ball).
  bool sees_whole_component() const {
    for (int d : dist) {
      if (d >= radius) return false;
    }
    return true;
  }
};

/// Deep equality: equal node order, ids, labels, edge records (order
/// included), adjacency lists, distances and proofs.  Stricter than
/// isomorphism on purpose — extraction is a deterministic function of the
/// host, and tests pin it at the representation level.
bool views_bit_identical(const View& a, const View& b);

/// Builds the view of node v (dense index) in g under proof p.  The view
/// reads p (lifetime rule above), so p must be an lvalue that outlives it.
View extract_view(const Graph& g, const Proof& p, int v, int radius);
View extract_view(const Graph& g, Proof&& p, int v, int radius) = delete;

/// The view of ball node v at radius `radius` inside an extracted ball,
/// under ball-indexed proof labels p.  Identical to extracting from the
/// host at that radius when radius <= the ball's own radius and v is its
/// centre (shortest paths to members stay inside the ball).
View extract_view(const Ball& ball, const Proof& p, int v, int radius);
View extract_view(const Ball& ball, Proof&& p, int v, int radius) = delete;

/// Batched view extraction over one host graph.
///
/// ViewExtractor keeps host-sized scratch (a position map that is all -1
/// between calls) and discovers each ball with a single BFS, assembling the
/// ball's edges from the members' adjacency lists only — so a whole-graph
/// sweep costs O(sum of ball sizes).  extract_into() refills an existing
/// View, reusing its vectors' capacity, so a warm extractor allocates
/// nothing per ball.  Instances are not thread-safe; each thread owns one.
class ViewExtractor {
 public:
  ViewExtractor() = default;
  explicit ViewExtractor(const Graph& g) { bind(g); }

  /// Binds to a host graph.  The scratch only ever grows (to g.n()), so
  /// rebinding — to the same graph after add_node, or to another graph —
  /// costs O(1) unless the graph got larger.
  void bind(const Graph& g);

  /// Extracts the view of node v (dense index) under proof p into `out`.
  /// Requires a prior bind(); p must outlive `out` (lifetime rule above).
  void extract_into(const Proof& p, int v, int radius, View& out);
  void extract_into(Proof&& p, int v, int radius, View& out) = delete;

  /// The host indices within distance `radius` of v, in BFS order (centre
  /// first), valid until the next call.  By ball symmetry these are also
  /// exactly the centres whose radius-`radius` ball contains v.
  const std::vector<int>& ball_members(int v, int radius);

 private:
  const Graph* g_ = nullptr;
  std::vector<int> position_;  // host index -> ball index; -1 when outside
  // ball_members() scratch: members in BFS order and their distances.
  std::vector<int> order_;
  std::vector<int> dist_;
};

}  // namespace lcp

#endif  // LCP_CORE_VIEW_HPP_
