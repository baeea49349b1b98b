#include "schemes/lcp_const.hpp"

#include "algo/bipartite.hpp"
#include "algo/traversal.hpp"
#include "graph/directed.hpp"
#include "graph/subgraph.hpp"

namespace lcp::schemes {

namespace {

/// Shared 2-colouring check: my 1-bit label differs from every neighbour's.
bool proper_two_coloring_locally(const View& view) {
  const BitString& mine = view.proof_of(view.center);
  if (mine.size() != 1) return false;
  for (const HalfEdge& h : view.ball.neighbors(view.center)) {
    const BitString& other = view.proof_of(h.to);
    if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
  }
  return true;
}

Proof bits_from_coloring(const std::vector<int>& colors) {
  Proof proof = Proof::empty(static_cast<int>(colors.size()));
  for (std::size_t v = 0; v < colors.size(); ++v) {
    proof.labels[v].append_bit(colors[v] == 1);
  }
  return proof;
}

int find_unique_label(const Graph& g, std::uint64_t label) {
  int found = -1;
  for (int v = 0; v < g.n(); ++v) {
    if (g.label(v) == label) {
      if (found >= 0) return -1;
      found = v;
    }
  }
  return found;
}

}  // namespace

BipartiteScheme::BipartiteScheme()
    : verifier_(std::make_unique<LambdaVerifier>(
          1, proper_two_coloring_locally)) {}

bool BipartiteScheme::holds(const Graph& g) const { return is_bipartite(g); }

std::optional<Proof> BipartiteScheme::prove(const Graph& g) const {
  const auto colors = two_coloring(g);
  if (!colors.has_value()) return std::nullopt;
  return bits_from_coloring(*colors);
}

EvenCycleScheme::EvenCycleScheme()
    : verifier_(std::make_unique<LambdaVerifier>(1, [](const View& view) {
        // Family promise: the input is a cycle; the degree check is free.
        if (view.ball.degree(view.center) != 2) return false;
        return proper_two_coloring_locally(view);
      })) {}

bool EvenCycleScheme::holds(const Graph& g) const {
  if (!is_connected(g) || g.n() < 3) return false;
  for (int v = 0; v < g.n(); ++v) {
    if (g.degree(v) != 2) return false;
  }
  return g.n() % 2 == 0;
}

std::optional<Proof> EvenCycleScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return bits_from_coloring(*two_coloring(g));
}

StReachabilityScheme::StReachabilityScheme()
    : verifier_(std::make_unique<LambdaVerifier>(1, [](const View& view) {
        const Ball& ball = view.ball;
        const int c = view.center;
        auto marked = [&view](int v) {
          const BitString& b = view.proof_of(v);
          return b.size() == 1 && b.bit(0);
        };
        const bool is_s = ball.label(c) == kSourceLabel;
        const bool is_t = ball.label(c) == kTargetLabel;
        int marked_neighbors = 0;
        for (const HalfEdge& h : ball.neighbors(c)) {
          if (marked(h.to)) ++marked_neighbors;
        }
        if (is_s || is_t) {
          // (i) s, t in U; (ii) exactly one marked neighbour each.
          return marked(c) && marked_neighbors == 1;
        }
        if (marked(c)) {
          // (iii) internal path nodes have exactly two marked neighbours.
          return marked_neighbors == 2;
        }
        return true;
      })) {}

bool StReachabilityScheme::holds(const Graph& g) const {
  const int s = find_unique_label(g, kSourceLabel);
  const int t = find_unique_label(g, kTargetLabel);
  if (s < 0 || t < 0) return false;
  return !shortest_path(g, s, t).empty();
}

std::optional<Proof> StReachabilityScheme::prove(const Graph& g) const {
  const int s = find_unique_label(g, kSourceLabel);
  const int t = find_unique_label(g, kTargetLabel);
  if (s < 0 || t < 0) return std::nullopt;
  const std::vector<int> path = shortest_path(g, s, t);
  if (path.empty()) return std::nullopt;
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) proof.labels[static_cast<std::size_t>(v)]
      .append_bit(false);
  for (int v : path) {
    proof.labels[static_cast<std::size_t>(v)] = BitString::from_string("1");
  }
  return proof;
}

StUnreachableScheme::StUnreachableScheme()
    : verifier_(std::make_unique<LambdaVerifier>(1, [](const View& view) {
        const Ball& ball = view.ball;
        const int c = view.center;
        const BitString& mine = view.proof_of(c);
        if (mine.size() != 1) return false;
        if (ball.label(c) == kSourceLabel && !mine.bit(0)) return false;
        if (ball.label(c) == kTargetLabel && mine.bit(0)) return false;
        // No edge may cross the partition at all: S must be a union of
        // connected components.
        for (const HalfEdge& h : ball.neighbors(c)) {
          const BitString& other = view.proof_of(h.to);
          if (other.size() != 1 || other.bit(0) != mine.bit(0)) return false;
        }
        return true;
      })) {}

bool StUnreachableScheme::holds(const Graph& g) const {
  const int s = find_unique_label(g, kSourceLabel);
  const int t = find_unique_label(g, kTargetLabel);
  if (s < 0 || t < 0) return false;
  return shortest_path(g, s, t).empty();
}

std::optional<Proof> StUnreachableScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const int s = find_unique_label(g, kSourceLabel);
  const std::vector<int> dist = bfs_distances(g, s);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    proof.labels[static_cast<std::size_t>(v)].append_bit(
        dist[static_cast<std::size_t>(v)] >= 0);
  }
  return proof;
}

StUnreachableDirectedScheme::StUnreachableDirectedScheme()
    : verifier_(std::make_unique<LambdaVerifier>(1, [](const View& view) {
        const Ball& ball = view.ball;
        const int c = view.center;
        const BitString& mine = view.proof_of(c);
        if (mine.size() != 1) return false;
        if (ball.label(c) == kSourceLabel && !mine.bit(0)) return false;
        if (ball.label(c) == kTargetLabel && mine.bit(0)) return false;
        if (!mine.bit(0)) return true;  // T-side nodes have nothing to check
        // I am in S: no arc from me into T.
        for (const HalfEdge& h : ball.neighbors(c)) {
          const BitString& other = view.proof_of(h.to);
          if (other.size() != 1) return false;
          if (!other.bit(0) && directed::has_arc(ball, c, h.to)) return false;
        }
        return true;
      })) {}

bool StUnreachableDirectedScheme::holds(const Graph& g) const {
  const int s = find_unique_label(g, kSourceLabel);
  const int t = find_unique_label(g, kTargetLabel);
  if (s < 0 || t < 0) return false;
  return !directed::reachable_from(g, s)[static_cast<std::size_t>(t)];
}

std::optional<Proof> StUnreachableDirectedScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const int s = find_unique_label(g, kSourceLabel);
  const std::vector<bool> reach = directed::reachable_from(g, s);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    proof.labels[static_cast<std::size_t>(v)].append_bit(
        reach[static_cast<std::size_t>(v)]);
  }
  return proof;
}

}  // namespace lcp::schemes
