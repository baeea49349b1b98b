#include "schemes/st_connectivity.hpp"

#include <algorithm>

#include "algo/coloring.hpp"
#include "algo/maxflow.hpp"
#include "schemes/lcp_const.hpp"

namespace lcp::schemes {

namespace {

constexpr std::uint64_t kSideS = 0;
constexpr std::uint64_t kSideC = 1;
constexpr std::uint64_t kSideT = 2;

struct PathLabel {
  std::uint64_t side = kSideS;
  bool on_path = false;
  std::uint64_t name = 0;
  std::uint64_t mod3 = 0;
  bool start = false;
  bool end = false;
};

int name_width(int k, PathNaming naming) {
  if (naming == PathNaming::kThreeColors) return 2;
  return std::max(1, bit_width_for(static_cast<std::uint64_t>(
                         k > 0 ? k - 1 : 0)));
}

BitString encode(const PathLabel& l, int width) {
  BitString b;
  b.append_uint(l.side, 2);
  b.append_bit(l.on_path);
  if (l.on_path) {
    b.append_uint(l.name, width);
    b.append_uint(l.mod3, 2);
    b.append_bit(l.start);
    b.append_bit(l.end);
  }
  return b;
}

std::optional<PathLabel> decode(const BitString& bits, int width) {
  BitReader r(bits);
  PathLabel l;
  l.side = r.read_uint(2);
  l.on_path = r.read_bit();
  if (l.on_path) {
    l.name = r.read_uint(width);
    l.mod3 = r.read_uint(2);
    l.start = r.read_bit();
    l.end = r.read_bit();
  }
  if (!r.exhausted()) return std::nullopt;
  if (l.side > kSideT || l.mod3 > 2) return std::nullopt;
  return l;
}

bool verify_center(const View& view, int k, PathNaming naming) {
  const Ball& ball = view.ball;
  const int c = view.center;
  const int width = name_width(k, naming);

  std::vector<std::optional<PathLabel>> labels;
  labels.reserve(view.proofs.size());
  for (const BitString& b : view.proofs) labels.push_back(decode(b, width));
  if (!labels[static_cast<std::size_t>(c)].has_value()) return false;
  const PathLabel& mine = *labels[static_cast<std::size_t>(c)];

  const bool is_s = ball.label(c) == kSourceLabel;
  const bool is_t = ball.label(c) == kTargetLabel;
  auto node_is_st = [&ball](int v) {
    return ball.label(v) == kSourceLabel || ball.label(v) == kTargetLabel;
  };

  // Partition checks: s in S, t in T, no S-T edge.
  if (is_s && mine.side != kSideS) return false;
  if (is_t && mine.side != kSideT) return false;
  for (const HalfEdge& h : ball.neighbors(c)) {
    const auto& other = labels[static_cast<std::size_t>(h.to)];
    if (!other.has_value()) return false;
    const bool st_cross =
        (mine.side == kSideS && other->side == kSideT) ||
        (mine.side == kSideT && other->side == kSideS);
    if (st_cross) return false;
  }

  if (is_s || is_t) {
    // Exactly k path endpoints adjacent to me; with unique indices they
    // must cover 1..k (here 0..k-1) exactly once.
    std::uint64_t seen = 0;
    int count = 0;
    for (const HalfEdge& h : ball.neighbors(c)) {
      const PathLabel& other = *labels[static_cast<std::size_t>(h.to)];
      const bool anchored = is_s ? other.start : other.end;
      if (other.on_path && anchored && !node_is_st(h.to)) {
        ++count;
        if (naming == PathNaming::kUniqueIndices) {
          if (other.name >= static_cast<std::uint64_t>(k)) return false;
          if (seen & (1ull << other.name)) return false;  // duplicate index
          seen |= 1ull << other.name;
        }
      }
    }
    return count == k;
  }

  if (!mine.on_path) {
    // Off-path nodes may not claim to be separator nodes.
    return mine.side != kSideC;
  }

  // Path-node checks.  Same-name neighbours (ignoring s and t, whose path
  // fields are inert) must be exactly the predecessor (mod3 - 1) and the
  // successor (mod3 + 1), minus the ends anchored at s / t.
  const std::uint64_t prev_mod = (mine.mod3 + 2) % 3;
  const std::uint64_t next_mod = (mine.mod3 + 1) % 3;
  int preds = 0;
  int succs = 0;
  int same_name = 0;
  const PathLabel* pred = nullptr;
  const PathLabel* succ = nullptr;
  bool adjacent_s = false;
  bool adjacent_t = false;
  const PathLabel* s_label = nullptr;
  const PathLabel* t_label = nullptr;
  for (const HalfEdge& h : ball.neighbors(c)) {
    const PathLabel& other = *labels[static_cast<std::size_t>(h.to)];
    if (ball.label(h.to) == kSourceLabel) {
      adjacent_s = true;
      s_label = &other;
      continue;
    }
    if (ball.label(h.to) == kTargetLabel) {
      adjacent_t = true;
      t_label = &other;
      continue;
    }
    if (!other.on_path || other.name != mine.name) continue;
    ++same_name;
    if (other.mod3 == prev_mod) {
      ++preds;
      pred = &other;
    } else if (other.mod3 == next_mod) {
      ++succs;
      succ = &other;
    }
  }
  const int want_preds = mine.start ? 0 : 1;
  const int want_succs = mine.end ? 0 : 1;
  if (preds != want_preds || succs != want_succs) return false;
  if (same_name != want_preds + want_succs) return false;
  if (mine.start && !adjacent_s) return false;
  if (mine.end && !adjacent_t) return false;

  if (mine.side == kSideC) {
    // (iv) separator nodes sit on a path with predecessor in S and
    // successor in T.
    const std::uint64_t pred_side =
        mine.start ? (s_label != nullptr ? s_label->side : kSideC)
                   : pred->side;
    const std::uint64_t succ_side =
        mine.end ? (t_label != nullptr ? t_label->side : kSideC)
                 : succ->side;
    if (pred_side != kSideS || succ_side != kSideT) return false;
  }
  return true;
}

}  // namespace

StConnectivityScheme::StConnectivityScheme(int k, PathNaming naming)
    : k_(k), naming_(naming) {
  verifier_ = std::make_unique<LambdaVerifier>(
      1, [k, naming](const View& view) { return verify_center(view, k, naming); });
}

std::string StConnectivityScheme::name() const {
  return naming_ == PathNaming::kUniqueIndices
             ? "st-connectivity-k=" + std::to_string(k_)
             : "st-connectivity-planar-k=" + std::to_string(k_);
}

bool StConnectivityScheme::holds(const Graph& g) const {
  const auto s = g.find_label(kSourceLabel);
  const auto t = g.find_label(kTargetLabel);
  if (!s.has_value() || !t.has_value() || g.has_edge(*s, *t)) return false;
  return st_vertex_connectivity(g, *s, *t).connectivity == k_;
}

std::optional<Proof> StConnectivityScheme::prove(const Graph& g) const {
  const auto s = g.find_label(kSourceLabel);
  const auto t = g.find_label(kTargetLabel);
  if (!s.has_value() || !t.has_value() || g.has_edge(*s, *t)) {
    return std::nullopt;
  }
  const MengerWitness w = st_vertex_connectivity(g, *s, *t);
  if (w.connectivity != k_) return std::nullopt;

  // Name the paths: their index, or a proper 3-colouring of the
  // path-adjacency graph (adjacent = some edge joins their interiors).
  std::vector<std::uint64_t> names(w.paths.size());
  if (naming_ == PathNaming::kUniqueIndices) {
    for (std::size_t i = 0; i < w.paths.size(); ++i) names[i] = i;
  } else {
    Graph adjacency;
    for (std::size_t i = 0; i < w.paths.size(); ++i) {
      adjacency.add_node(static_cast<NodeId>(i + 1));
    }
    std::vector<int> path_of(static_cast<std::size_t>(g.n()), -1);
    for (std::size_t i = 0; i < w.paths.size(); ++i) {
      const auto& path = w.paths[i];
      for (std::size_t j = 1; j + 1 < path.size(); ++j) {
        path_of[static_cast<std::size_t>(path[j])] = static_cast<int>(i);
      }
    }
    for (int e = 0; e < g.m(); ++e) {
      const int pu = path_of[static_cast<std::size_t>(g.edge_u(e))];
      const int pv = path_of[static_cast<std::size_t>(g.edge_v(e))];
      if (pu >= 0 && pv >= 0 && pu != pv && !adjacency.has_edge(pu, pv)) {
        adjacency.add_edge(pu, pv);
      }
    }
    const auto colors = k_coloring(adjacency, 3);
    if (!colors.has_value()) return std::nullopt;  // not 3-colourable: give up
    for (std::size_t i = 0; i < w.paths.size(); ++i) {
      names[i] = static_cast<std::uint64_t>((*colors)[i]);
    }
  }

  std::vector<PathLabel> labels(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    labels[static_cast<std::size_t>(v)].side =
        static_cast<std::uint64_t>(w.side[static_cast<std::size_t>(v)]);
  }
  for (std::size_t i = 0; i < w.paths.size(); ++i) {
    const auto& path = w.paths[i];
    for (std::size_t j = 1; j + 1 < path.size(); ++j) {
      PathLabel& l = labels[static_cast<std::size_t>(path[j])];
      l.on_path = true;
      l.name = names[i];
      l.mod3 = static_cast<std::uint64_t>(j % 3);
      l.start = j == 1;
      l.end = j + 2 == path.size();
    }
  }
  const int width = name_width(k_, naming_);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    proof.labels[static_cast<std::size_t>(v)] =
        encode(labels[static_cast<std::size_t>(v)], width);
  }
  return proof;
}

int StConnectivityScheme::advertised_size(int) const {
  return 3 + name_width(k_, naming_) + 4;
}

}  // namespace lcp::schemes
