#include "graph/directed.hpp"

#include <queue>

namespace lcp::directed {

void add_arc(Graph& g, int u, int v) {
  int e = g.edge_index(u, v);
  if (e < 0) e = g.add_edge(u, v, 0);
  const bool forward = g.edge_u(e) == u;
  g.set_edge_label(e, g.edge_label(e) | (forward ? kForward : kBackward));
}

std::vector<bool> reachable_from(const Graph& g, int src) {
  std::vector<bool> seen(static_cast<std::size_t>(g.n()), false);
  std::queue<int> queue;
  seen[static_cast<std::size_t>(src)] = true;
  queue.push(src);
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop();
    for (const HalfEdge& h : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(h.to)] && has_arc(g, v, h.to)) {
        seen[static_cast<std::size_t>(h.to)] = true;
        queue.push(h.to);
      }
    }
  }
  return seen;
}

}  // namespace lcp::directed
