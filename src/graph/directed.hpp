// Directed-graph support on top of the undirected substrate.
//
// Only one scheme in the paper (directed s-t unreachability, Section 4.1)
// needs arc directions, so rather than duplicating the whole Graph/View
// stack we store a direction mask in the edge label: bit 0 = arc from
// edge_u(e) to edge_v(e), bit 1 = the reverse arc.  The mask travels with
// the edge into induced balls, so local verifiers see directions naturally.
#ifndef LCP_GRAPH_DIRECTED_HPP_
#define LCP_GRAPH_DIRECTED_HPP_

#include <vector>

#include "graph/graph.hpp"

namespace lcp::directed {

inline constexpr std::uint64_t kForward = 1;   // edge_u -> edge_v
inline constexpr std::uint64_t kBackward = 2;  // edge_v -> edge_u

/// Declares an arc u -> v.  Adds the undirected edge when missing.
void add_arc(Graph& g, int u, int v);

/// True when the arc u -> v exists.  Works on any graph with Graph's
/// edge read API, so verifiers call it on extracted balls directly.
template <class G>
bool has_arc(const G& g, int u, int v) {
  const int e = g.edge_index(u, v);
  if (e < 0) return false;
  const bool forward = g.edge_u(e) == u;
  return (g.edge_label(e) & (forward ? kForward : kBackward)) != 0;
}

/// Nodes reachable from `src` following arcs.
std::vector<bool> reachable_from(const Graph& g, int src);

}  // namespace lcp::directed

#endif  // LCP_GRAPH_DIRECTED_HPP_
