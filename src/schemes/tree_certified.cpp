#include "schemes/tree_certified.hpp"

#include "algo/traversal.hpp"
#include "core/certificates.hpp"

namespace lcp::schemes {

namespace {

/// Decodes tree certificates for every ball node.
std::vector<std::optional<TreeCert>> decode_ball_certs(const View& view) {
  std::vector<std::optional<TreeCert>> certs;
  certs.reserve(view.proofs.size());
  for (const BitString& label : view.proofs) {
    BitReader r(label);
    certs.push_back(read_tree_cert(r));
  }
  return certs;
}

/// The smallest-id node, the canonical root choice for pure properties.
int min_id_node(const Graph& g) {
  int best = 0;
  for (int v = 1; v < g.n(); ++v) {
    if (g.id(v) < g.id(best)) best = v;
  }
  return best;
}

Proof certs_to_proof(const std::vector<TreeCert>& certs) {
  Proof proof = Proof::empty(static_cast<int>(certs.size()));
  for (std::size_t v = 0; v < certs.size(); ++v) {
    append_tree_cert(proof.labels[v], certs[v]);
  }
  return proof;
}

}  // namespace

// ---------------------------------------------------------------- leader --

LeaderElectionScheme::LeaderElectionScheme(int trunc_bits)
    : trunc_bits_(trunc_bits) {
  verifier_ = std::make_unique<LambdaVerifier>(2, [trunc_bits](const View& v) {
    const auto certs = decode_ball_certs(v);
    if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
    const bool is_root = cert_says_root(*certs[static_cast<std::size_t>(
        v.center)]);
    const bool is_leader = v.ball.label(v.center) == kLeaderFlag;
    return is_root == is_leader;
  });
}

std::string LeaderElectionScheme::name() const {
  return trunc_bits_ == 0
             ? "leader-election"
             : "leader-election/b=" + std::to_string(trunc_bits_);
}

bool LeaderElectionScheme::holds(const Graph& g) const {
  int leaders = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (g.label(v) == kLeaderFlag) ++leaders;
  }
  return leaders == 1 && is_connected(g);
}

std::optional<Proof> LeaderElectionScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const int leader = *g.find_label(kLeaderFlag);
  return certs_to_proof(
      make_tree_cert_labels(g, bfs_tree(g, leader), trunc_bits_));
}

int LeaderElectionScheme::advertised_size(int n) const {
  return trunc_bits_ > 0 ? 14 + 4 * trunc_bits_
                         : tree_cert_bits(n, static_cast<NodeId>(4 * n * n));
}

// --------------------------------------------------------- spanning tree --

SpanningTreeScheme::SpanningTreeScheme(int trunc_bits)
    : trunc_bits_(trunc_bits) {
  verifier_ = std::make_unique<LambdaVerifier>(2, [trunc_bits](const View& v) {
    const auto certs = decode_ball_certs(v);
    if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
    // The certified tree edges at the centre must be exactly the labelled
    // edges: the parent edge plus the edges to certified children.
    const Ball& ball = v.ball;
    const int c = v.center;
    const TreeCert& mine = *certs[static_cast<std::size_t>(c)];
    for (const HalfEdge& h : ball.neighbors(c)) {
      const TreeCert& other = *certs[static_cast<std::size_t>(h.to)];
      const bool is_parent_edge =
          !cert_says_root(mine) &&
          ball.neighbor_at_port(c, mine.parent_port) == h.to;
      const bool is_child_edge =
          !cert_says_root(other) &&
          other.parent_port >= 0 && other.parent_port < ball.degree(h.to) &&
          ball.neighbor_at_port(h.to, other.parent_port) == c;
      const bool labelled = (ball.edge_label(h.edge) & kTreeEdgeBit) != 0;
      if (labelled != (is_parent_edge || is_child_edge)) return false;
    }
    return true;
  });
}

std::string SpanningTreeScheme::name() const {
  return trunc_bits_ == 0 ? "spanning-tree"
                          : "spanning-tree/b=" + std::to_string(trunc_bits_);
}

bool SpanningTreeScheme::holds(const Graph& g) const {
  int count = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (g.edge_label(e) & kTreeEdgeBit) ++count;
  }
  if (count != g.n() - 1) return false;
  auto edge_ok = [&g](int e) { return (g.edge_label(e) & kTreeEdgeBit) != 0; };
  const RootedTree tree = bfs_tree_restricted(g, 0, edge_ok);
  for (int v = 0; v < g.n(); ++v) {
    if (tree.dist[static_cast<std::size_t>(v)] < 0) return false;
  }
  return true;
}

std::optional<Proof> SpanningTreeScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  auto edge_ok = [&g](int e) { return (g.edge_label(e) & kTreeEdgeBit) != 0; };
  const int root = min_id_node(g);
  return certs_to_proof(make_tree_cert_labels(
      g, bfs_tree_restricted(g, root, edge_ok), trunc_bits_));
}

int SpanningTreeScheme::advertised_size(int n) const {
  return trunc_bits_ > 0 ? 14 + 4 * trunc_bits_
                         : tree_cert_bits(n, static_cast<NodeId>(4 * n * n));
}

// ----------------------------------------------------------------- parity --

ParityScheme::ParityScheme(bool want_odd, int trunc_bits)
    : want_odd_(want_odd), trunc_bits_(trunc_bits) {
  verifier_ = std::make_unique<LambdaVerifier>(
      2, [want_odd, trunc_bits](const View& v) {
        const auto certs = decode_ball_certs(v);
        if (!check_tree_cert_at_center(v, certs, trunc_bits)) return false;
        const TreeCert& mine = *certs[static_cast<std::size_t>(v.center)];
        if (cert_says_root(mine)) {
          // The root certifies n = its own subtree count; parity is the
          // low bit, which truncation (b >= 1) preserves per-field but an
          // adversary can still desynchronise globally — that is the hole.
          if ((mine.total % 2 == 1) != want_odd) return false;
        }
        return true;
      });
}

std::string ParityScheme::name() const {
  std::string base = want_odd_ ? "odd-n" : "even-n";
  return trunc_bits_ == 0 ? base : base + "/b=" + std::to_string(trunc_bits_);
}

bool ParityScheme::holds(const Graph& g) const {
  return is_connected(g) && (g.n() % 2 == 1) == want_odd_;
}

std::optional<Proof> ParityScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return certs_to_proof(
      make_tree_cert_labels(g, bfs_tree(g, min_id_node(g)), trunc_bits_));
}

int ParityScheme::advertised_size(int n) const {
  return trunc_bits_ > 0 ? 14 + 4 * trunc_bits_
                         : tree_cert_bits(n, static_cast<NodeId>(4 * n * n));
}

// ---------------------------------------------------------------- acyclic --

namespace {

constexpr int kAcyclicWidthBits = 6;

std::optional<std::uint64_t> read_dist_label(const BitString& label,
                                             int trunc_bits, int* width_out) {
  BitReader r(label);
  const int width = static_cast<int>(r.read_uint(kAcyclicWidthBits));
  const std::uint64_t dist = r.read_uint(width);
  if (!r.exhausted()) return std::nullopt;
  if (trunc_bits > 0 && width != trunc_bits) return std::nullopt;
  if (width_out != nullptr) *width_out = width;
  return dist;
}

}  // namespace

AcyclicScheme::AcyclicScheme(int trunc_bits) : trunc_bits_(trunc_bits) {
  verifier_ = std::make_unique<LambdaVerifier>(1, [trunc_bits](const View& v) {
    int my_width = 0;
    const auto mine =
        read_dist_label(v.proof_of(v.center), trunc_bits, &my_width);
    if (!mine.has_value()) return false;
    const bool truncated = trunc_bits > 0;
    const std::uint64_t mod =
        truncated && trunc_bits < 64 ? (1ull << trunc_bits) : 0;
    int below = 0;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      int width = 0;
      const auto other = read_dist_label(v.proof_of(h.to), trunc_bits, &width);
      if (!other.has_value() || width != my_width) return false;
      const std::uint64_t up = truncated ? (*mine + 1) % mod : *mine + 1;
      const std::uint64_t down =
          truncated ? (*mine + mod - 1) % mod
                    : (*mine == 0 ? ~0ull : *mine - 1);
      if (*other == down) {
        ++below;
      } else if (*other != up) {
        return false;  // every edge must step the distance by exactly 1
      }
    }
    if (trunc_bits == 0) {
      return *mine == 0 ? below == 0 : below == 1;
    }
    // Truncated variant: a node cannot tell "0" from "2^b"; accept one
    // lower neighbour, or none when claiming 0.  (Intentionally unsound.)
    return below <= 1;
  });
}

std::string AcyclicScheme::name() const {
  return trunc_bits_ == 0 ? "acyclic" : "acyclic/b=" + std::to_string(trunc_bits_);
}

bool AcyclicScheme::holds(const Graph& g) const {
  // A forest: every component has exactly (size - 1) edges; equivalently
  // BFS from any root reaches every node without cross edges.  Count:
  // m == n - #components.
  const std::vector<int> comp = components(g);
  int num_components = 0;
  for (int c : comp) num_components = std::max(num_components, c + 1);
  return g.m() == g.n() - num_components;
}

std::optional<Proof> AcyclicScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const std::vector<int> comp = components(g);
  std::vector<int> root_of_component;
  std::vector<std::uint64_t> dist(static_cast<std::size_t>(g.n()), 0);
  for (int v = 0; v < g.n(); ++v) {
    const int c = comp[static_cast<std::size_t>(v)];
    if (c == static_cast<int>(root_of_component.size())) {
      root_of_component.push_back(v);
      const RootedTree tree = bfs_tree(g, v);
      for (int u = 0; u < g.n(); ++u) {
        if (tree.dist[static_cast<std::size_t>(u)] >= 0) {
          dist[static_cast<std::size_t>(u)] = static_cast<std::uint64_t>(
              tree.dist[static_cast<std::size_t>(u)]);
        }
      }
    }
  }
  const int width =
      trunc_bits_ > 0 ? trunc_bits_
                      : bit_width_for(static_cast<std::uint64_t>(g.n()));
  const std::uint64_t mod =
      trunc_bits_ > 0 && trunc_bits_ < 64 ? (1ull << trunc_bits_) : 0;
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    std::uint64_t d = dist[static_cast<std::size_t>(v)];
    if (mod != 0) d %= mod;
    proof.labels[static_cast<std::size_t>(v)].append_uint(
        static_cast<std::uint64_t>(width), kAcyclicWidthBits);
    proof.labels[static_cast<std::size_t>(v)].append_uint(d, width);
  }
  return proof;
}

int AcyclicScheme::advertised_size(int n) const {
  return kAcyclicWidthBits +
         (trunc_bits_ > 0 ? trunc_bits_
                          : bit_width_for(static_cast<std::uint64_t>(n)));
}

}  // namespace lcp::schemes
