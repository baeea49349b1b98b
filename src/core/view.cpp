#include "core/view.hpp"

#include <algorithm>

namespace lcp {

/// Fills balls and binds proof labels; the one writer of Ball and
/// ProofLabels internals.  Templated on the graph type so a ball can be
/// extracted from a host Graph or from inside another Ball.
class BallBuilder {
 public:
  /// One BFS from v, bounded by `radius`: `order` receives the members
  /// (centre first) and `dist` their distances; `position` maps each
  /// member to its ball index and must be all -1 on entry (reset()
  /// restores that).
  template <class G>
  static void bfs(const G& g, int v, int radius, std::vector<int>& position,
                  std::vector<int>& order, std::vector<int>& dist) {
    order.clear();
    dist.clear();
    // `order` doubles as the queue: members are only appended, and the
    // scan head never overtakes the tail.
    position[static_cast<std::size_t>(v)] = 0;
    order.push_back(v);
    dist.push_back(0);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const int u = order[head];
      const int du = dist[head];
      if (du == radius) continue;
      for (const HalfEdge& h : g.neighbors(u)) {
        int& slot = position[static_cast<std::size_t>(h.to)];
        if (slot < 0) {
          slot = static_cast<int>(order.size());
          order.push_back(h.to);
          dist.push_back(du + 1);
        }
      }
    }
  }

  static void reset(std::vector<int>& position,
                    const std::vector<int>& order) {
    for (int u : order) position[static_cast<std::size_t>(u)] = -1;
  }

  /// Builds the induced ball on `order` into `ball`, reusing its storage.
  /// Edges come from the members' id-sorted adjacency lists, so each
  /// ball list stays id-sorted; an edge is numbered when its smaller-index
  /// endpoint's list is scanned and keeps the host's (edge_u, edge_v).
  template <class G>
  static void fill(const G& g, const std::vector<int>& position,
                   const std::vector<int>& order, Ball& ball) {
    const std::size_t n = order.size();
    ball.ids_.resize(n);
    ball.labels_.resize(n);
    ball.offsets_.resize(n + 1);
    ball.half_.clear();
    ball.edges_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ball.ids_[i] = g.id(order[i]);
      ball.labels_[i] = g.label(order[i]);
    }
    ball.offsets_[0] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int self = static_cast<int>(i);
      for (const HalfEdge& h : g.neighbors(order[i])) {
        const int j = position[static_cast<std::size_t>(h.to)];
        if (j < 0) continue;
        if (j > self) {
          const int e = static_cast<int>(ball.edges_.size());
          ball.edges_.push_back(Ball::EdgeRecord{
              position[static_cast<std::size_t>(g.edge_u(h.edge))],
              position[static_cast<std::size_t>(g.edge_v(h.edge))],
              g.edge_label(h.edge), g.edge_weight(h.edge)});
          ball.half_.push_back(HalfEdge{j, e});
        } else {
          // j's list is complete and id-sorted: find its entry for us.
          const auto first = ball.half_.begin() + ball.offsets_[
              static_cast<std::size_t>(j)];
          const auto last = ball.half_.begin() + ball.offsets_[
              static_cast<std::size_t>(j) + 1];
          const NodeId mine = ball.ids_[i];
          const auto it = std::lower_bound(
              first, last, mine, [&ball](const HalfEdge& x, NodeId id) {
                return ball.ids_[static_cast<std::size_t>(x.to)] < id;
              });
          ball.half_.push_back(HalfEdge{j, it->edge});
        }
      }
      ball.offsets_[i + 1] = static_cast<int>(ball.half_.size());
    }
  }

  /// Extracts the view of v into `out`, reusing its storage.  The BFS
  /// order doubles as the proof labels' host-index list, so binding the
  /// labels copies nothing.
  template <class G>
  static void extract(const G& g, const Proof& p, int v, int radius,
                      std::vector<int>& position, View& out) {
    std::vector<int>& order = out.proofs.members_;
    bfs(g, v, radius, position, order, out.dist);
    fill(g, position, order, out.ball);
    reset(position, order);
    out.proofs.host_ = &p;
    out.proofs.owned_.clear();
    out.center = 0;
    out.radius = radius;
  }
};

namespace {

template <class G>
View extract_from(const G& g, const Proof& p, int v, int radius) {
  std::vector<int> position(static_cast<std::size_t>(g.n()), -1);
  View view;
  BallBuilder::extract(g, p, v, radius, position, view);
  return view;
}

}  // namespace

Ball::Ball(const Graph& g)
    : ids_(g.ids()), offsets_(static_cast<std::size_t>(g.n()) + 1, 0) {
  labels_.reserve(ids_.size());
  half_.reserve(2 * static_cast<std::size_t>(g.m()));
  for (int v = 0; v < g.n(); ++v) {
    labels_.push_back(g.label(v));
    for (const HalfEdge& h : g.neighbors(v)) half_.push_back(h);
    offsets_[static_cast<std::size_t>(v) + 1] =
        static_cast<int>(half_.size());
  }
  edges_.reserve(static_cast<std::size_t>(g.m()));
  for (int e = 0; e < g.m(); ++e) {
    edges_.push_back(EdgeRecord{g.edge_u(e), g.edge_v(e), g.edge_label(e),
                                g.edge_weight(e)});
  }
}

int Ball::edge_index(int u, int v) const {
  int from = u;
  int to = v;
  if (degree(v) < degree(u)) std::swap(from, to);
  for (const HalfEdge& h : neighbors(from)) {
    if (h.to == to) return h.edge;
  }
  return -1;
}

std::optional<int> Ball::index_of(NodeId id) const {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id) return static_cast<int>(i);
  }
  return std::nullopt;
}

Graph Ball::to_graph() const {
  Graph out;
  for (int v = 0; v < n(); ++v) out.add_node(id(v), label(v));
  for (const EdgeRecord& e : edges_) {
    out.add_edge(e.u, e.v, e.label, e.weight);
  }
  return out;
}

bool operator==(const Ball& a, const Ball& b) {
  if (a.ids_ != b.ids_ || a.labels_ != b.labels_ ||
      a.offsets_ != b.offsets_ || a.half_.size() != b.half_.size() ||
      a.edges_.size() != b.edges_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.half_.size(); ++i) {
    if (a.half_[i].to != b.half_[i].to ||
        a.half_[i].edge != b.half_[i].edge) {
      return false;
    }
  }
  for (std::size_t e = 0; e < a.edges_.size(); ++e) {
    const Ball::EdgeRecord& x = a.edges_[e];
    const Ball::EdgeRecord& y = b.edges_[e];
    if (x.u != y.u || x.v != y.v || x.label != y.label ||
        x.weight != y.weight) {
      return false;
    }
  }
  return true;
}

void ProofLabels::assign(std::vector<BitString> labels) {
  host_ = nullptr;
  members_.clear();
  owned_ = std::move(labels);
}

void ProofLabels::own() {
  if (host_ == nullptr) return;
  owned_.clear();
  owned_.reserve(members_.size());
  for (int u : members_) {
    owned_.push_back(host_->labels[static_cast<std::size_t>(u)]);
  }
  host_ = nullptr;
  members_.clear();
}

bool operator==(const ProofLabels& a, const ProofLabels& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

View View::from_graph(const Graph& ball, int center, int radius,
                      std::vector<BitString> proofs, std::vector<int> dist) {
  View view;
  view.ball = Ball(ball);
  view.center = center;
  view.radius = radius;
  view.proofs.assign(std::move(proofs));
  view.dist = std::move(dist);
  return view;
}

bool views_bit_identical(const View& a, const View& b) {
  return a.center == b.center && a.radius == b.radius && a.dist == b.dist &&
         a.proofs == b.proofs && a.ball == b.ball;
}

void ViewExtractor::bind(const Graph& g) {
  g_ = &g;
  if (position_.size() < static_cast<std::size_t>(g.n())) {
    position_.resize(static_cast<std::size_t>(g.n()), -1);
  }
}

void ViewExtractor::extract_into(const Proof& p, int v, int radius,
                                 View& out) {
  BallBuilder::extract(*g_, p, v, radius, position_, out);
}

const std::vector<int>& ViewExtractor::ball_members(int v, int radius) {
  BallBuilder::bfs(*g_, v, radius, position_, order_, dist_);
  BallBuilder::reset(position_, order_);
  return order_;
}

View extract_view(const Graph& g, const Proof& p, int v, int radius) {
  return extract_from(g, p, v, radius);
}

View extract_view(const Ball& ball, const Proof& p, int v, int radius) {
  return extract_from(ball, p, v, radius);
}

}  // namespace lcp
