#include "schemes/matching_schemes.hpp"

#include <algorithm>

#include "algo/bipartite.hpp"
#include "algo/matching.hpp"

namespace lcp::schemes {

namespace {

std::vector<bool> label_mask(const Graph& g, std::uint64_t bit) {
  std::vector<bool> mask(static_cast<std::size_t>(g.m()), false);
  for (int e = 0; e < g.m(); ++e) {
    mask[static_cast<std::size_t>(e)] = (g.edge_label(e) & bit) != 0;
  }
  return mask;
}

/// Matched-degree of a node inside a view: how many incident labelled
/// matching edges it has (from the ball; correct for nodes at distance
/// <= radius - 1 from the centre, whose edges are all present).
int matched_degree_in_ball(const View& v, int node, std::uint64_t bit) {
  int count = 0;
  for (const HalfEdge& h : v.ball.neighbors(node)) {
    if (v.ball.edge_label(h.edge) & bit) ++count;
  }
  return count;
}

}  // namespace

// -------------------------------------------------------- maximal matching --

MaximalMatchingScheme::MaximalMatchingScheme() {
  verifier_ = std::make_unique<LambdaVerifier>(2, [](const View& v) {
    const int mine = matched_degree_in_ball(v, v.center, kMatchedBit);
    if (mine > 1) return false;  // not a matching
    if (mine == 1) return true;
    // I am unmatched: maximality demands every neighbour is matched.
    // Neighbours are at distance 1, so the radius-2 ball contains all of
    // their incident edges.
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      if (matched_degree_in_ball(v, h.to, kMatchedBit) == 0) return false;
    }
    return true;
  });
}

bool MaximalMatchingScheme::holds(const Graph& g) const {
  return is_maximal_matching(g, label_mask(g, kMatchedBit));
}

std::optional<Proof> MaximalMatchingScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return Proof::empty(g.n());
}

// ------------------------------------------------------------------- MIS --

MaximalIndependentSetScheme::MaximalIndependentSetScheme() {
  verifier_ = std::make_unique<LambdaVerifier>(1, [](const View& v) {
    const bool in_set = v.ball.label(v.center) == kInSetLabel;
    bool has_set_neighbor = false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      if (v.ball.label(h.to) == kInSetLabel) has_set_neighbor = true;
    }
    // Independent: no two set nodes adjacent.  Maximal: an outside node
    // must see the set.
    return in_set ? !has_set_neighbor : has_set_neighbor;
  });
}

bool MaximalIndependentSetScheme::holds(const Graph& g) const {
  for (int e = 0; e < g.m(); ++e) {
    if (g.label(g.edge_u(e)) == kInSetLabel &&
        g.label(g.edge_v(e)) == kInSetLabel) {
      return false;
    }
  }
  for (int v = 0; v < g.n(); ++v) {
    if (g.label(v) == kInSetLabel) continue;
    bool covered = false;
    for (const HalfEdge& h : g.neighbors(v)) {
      if (g.label(h.to) == kInSetLabel) covered = true;
    }
    if (!covered) return false;
  }
  return true;
}

std::optional<Proof> MaximalIndependentSetScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return Proof::empty(g.n());
}

// ------------------------------------------- maximum matching (bipartite) --

MaxMatchingBipartiteScheme::MaxMatchingBipartiteScheme() {
  verifier_ = std::make_unique<LambdaVerifier>(2, [](const View& v) {
    const Ball& ball = v.ball;
    const int c = v.center;
    auto covered = [&v](int u) {
      const BitString& b = v.proof_of(u);
      return b.size() == 1 && b.bit(0);
    };
    if (v.proof_of(c).size() != 1) return false;
    const int mine = matched_degree_in_ball(v, c, kMatchedBit);
    if (mine > 1) return false;  // not a matching
    // Every cover node is matched ...
    if (covered(c) && mine == 0) return false;
    for (const HalfEdge& h : ball.neighbors(c)) {
      const bool edge_in_m = (ball.edge_label(h.edge) & kMatchedBit) != 0;
      // ... every edge has a covered endpoint ...
      if (!covered(c) && !covered(h.to)) return false;
      // ... and every matching edge has exactly one covered endpoint.
      if (edge_in_m && covered(c) && covered(h.to)) return false;
    }
    return true;
  });
}

bool MaxMatchingBipartiteScheme::holds(const Graph& g) const {
  const auto side = two_coloring(g);
  if (!side.has_value()) return false;  // family promise: bipartite
  const std::vector<bool> mask = label_mask(g, kMatchedBit);
  if (!is_matching(g, mask)) return false;
  int size = 0;
  for (std::size_t e = 0; e < mask.size(); ++e) size += mask[e] ? 1 : 0;
  const std::vector<int> best = max_bipartite_matching(g, *side);
  int best_size = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (best[static_cast<std::size_t>(v)] >= 0) ++best_size;
  }
  return size == best_size / 2;
}

std::optional<Proof> MaxMatchingBipartiteScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const std::vector<int> side = *two_coloring(g);
  // Konig cover built from the *given* maximum matching (strong scheme).
  const std::vector<int> mates =
      mates_from_mask(g, label_mask(g, kMatchedBit));
  const std::vector<bool> cover = konig_cover(g, side, mates);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    proof.labels[static_cast<std::size_t>(v)].append_bit(
        cover[static_cast<std::size_t>(v)]);
  }
  return proof;
}

// ------------------------------------------------- max-weight matching --

MaxWeightMatchingScheme::MaxWeightMatchingScheme(std::int64_t max_weight)
    : max_weight_(max_weight),
      width_(bit_width_for(static_cast<std::uint64_t>(max_weight))) {
  const int width = width_;
  verifier_ = std::make_unique<LambdaVerifier>(1, [width](const View& v) {
    const Ball& ball = v.ball;
    const int c = v.center;
    auto dual = [&v, width](int u) -> std::optional<std::int64_t> {
      const BitString& b = v.proof_of(u);
      if (b.size() != width) return std::nullopt;
      BitReader r(b);
      return static_cast<std::int64_t>(r.read_uint(width));
    };
    const auto mine = dual(c);
    if (!mine.has_value()) return false;
    const int matched = matched_degree_in_ball(v, c, kMatchedBit);
    if (matched > 1) return false;  // not a matching
    // Complementary slackness: positive dual => matched.
    if (*mine > 0 && matched == 0) return false;
    for (const HalfEdge& h : ball.neighbors(c)) {
      const auto other = dual(h.to);
      if (!other.has_value()) return false;
      const std::int64_t w = ball.edge_weight(h.edge);
      // Dual feasibility on every edge.
      if (*mine + *other < w) return false;
      // Tightness on matching edges.
      if ((ball.edge_label(h.edge) & kMatchedBit) && *mine + *other != w) {
        return false;
      }
    }
    return true;
  });
}

std::string MaxWeightMatchingScheme::name() const {
  return "max-weight-matching/W=" + std::to_string(max_weight_);
}

bool MaxWeightMatchingScheme::holds(const Graph& g) const {
  const auto side = two_coloring(g);
  if (!side.has_value()) return false;
  for (int e = 0; e < g.m(); ++e) {
    if (g.edge_weight(e) < 0 || g.edge_weight(e) > max_weight_) return false;
  }
  const std::vector<bool> mask = label_mask(g, kMatchedBit);
  if (!is_matching(g, mask)) return false;
  std::int64_t weight = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (mask[static_cast<std::size_t>(e)]) weight += g.edge_weight(e);
  }
  return weight == max_weight_matching_value(g, *side);
}

std::optional<Proof> MaxWeightMatchingScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const std::vector<int> side = *two_coloring(g);
  const std::vector<std::int64_t> y = max_weight_matching_duals(g, side);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    proof.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(y[static_cast<std::size_t>(v)]), width_);
  }
  return proof;
}

}  // namespace lcp::schemes
