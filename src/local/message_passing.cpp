#include "local/message_passing.hpp"

#include <map>
#include <tuple>

#include "graph/subgraph.hpp"

namespace lcp {

namespace {

/// What one node knows about another node after some rounds.
struct NodeRecord {
  std::uint64_t label = 0;
  BitString proof;
  /// Incident edges as (neighbour id, edge label, weight, whether this
  /// node is the edge's first endpoint).  The endpoint order carries arc
  /// directions (graph/directed.hpp), so the ball must keep it.
  std::vector<std::tuple<NodeId, std::uint64_t, std::int64_t, bool>>
      incident;
};

using Knowledge = std::map<NodeId, NodeRecord>;

}  // namespace

View assemble_view_by_flooding(const Graph& g, const Proof& p, int v,
                               int radius) {
  // Round 0: every node knows its own record.
  std::vector<Knowledge> know(static_cast<std::size_t>(g.n()));
  for (int u = 0; u < g.n(); ++u) {
    NodeRecord rec;
    rec.label = g.label(u);
    rec.proof = p.labels[static_cast<std::size_t>(u)];
    for (const HalfEdge& h : g.neighbors(u)) {
      rec.incident.emplace_back(g.id(h.to), g.edge_label(h.edge),
                                g.edge_weight(h.edge),
                                g.edge_u(h.edge) == u);
    }
    know[static_cast<std::size_t>(u)].emplace(g.id(u), std::move(rec));
  }
  // r synchronous rounds: everyone sends everything they know to all
  // neighbours.  (Grossly inefficient and exactly the model.)
  for (int round = 0; round < radius; ++round) {
    std::vector<Knowledge> next = know;
    for (int u = 0; u < g.n(); ++u) {
      for (const HalfEdge& h : g.neighbors(u)) {
        for (const auto& [id, rec] : know[static_cast<std::size_t>(h.to)]) {
          next[static_cast<std::size_t>(u)].emplace(id, rec);
        }
      }
    }
    know = std::move(next);
  }

  // Assemble: nodes = everything heard of; edges = pairs where both
  // endpoints were heard of; then restrict to distance <= radius from v.
  // (A node at distance radius reports edges to distance radius+1 nodes,
  // but those nodes' records never reach v, so they are dropped —
  // yielding exactly the induced ball G[v, radius].)
  const Knowledge& mine = know[static_cast<std::size_t>(v)];
  Graph assembled;
  for (const auto& [id, rec] : mine) assembled.add_node(id, rec.label);
  for (const auto& [id, rec] : mine) {
    const int a = *assembled.index_of(id);
    for (const auto& [other, elabel, weight, first] : rec.incident) {
      const std::optional<int> b = assembled.index_of(other);
      if (b.has_value() && !assembled.has_edge(a, *b)) {
        if (first) {
          assembled.add_edge(a, *b, elabel, weight);
        } else {
          assembled.add_edge(*b, a, elabel, weight);
        }
      }
    }
  }
  const int center = *assembled.index_of(g.id(v));
  const std::vector<int> dist = bfs_distances(assembled, center);
  std::vector<int> keep;
  for (int u = 0; u < assembled.n(); ++u) {
    if (dist[static_cast<std::size_t>(u)] >= 0 &&
        dist[static_cast<std::size_t>(u)] <= radius) {
      keep.push_back(u);
    }
  }

  const Graph ball = induced_subgraph(assembled, keep);
  const int ball_center = *ball.index_of(g.id(v));
  std::vector<BitString> proofs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    proofs[i] = mine.at(ball.id(static_cast<int>(i))).proof;
  }
  return View::from_graph(ball, ball_center, radius, std::move(proofs),
                          bfs_distances(ball, ball_center));
}

RunResult run_verifier_message_passing(const Graph& g, const Proof& p,
                                       const LocalVerifier& a) {
  RunResult result;
  result.evaluated = static_cast<std::uint64_t>(g.n());
  for (int v = 0; v < g.n(); ++v) {
    const View view = assemble_view_by_flooding(g, p, v, a.radius());
    if (!a.accept(view)) {
      result.all_accept = false;
      result.rejecting.push_back(v);
    }
  }
  return result;
}

}  // namespace lcp
