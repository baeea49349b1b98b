#include "core/certificates.hpp"

#include <algorithm>

namespace lcp {

namespace {

constexpr int kWidthBits = 6;
constexpr int kPortBits = 8;

std::uint64_t truncate(std::uint64_t value, int bits) {
  if (bits <= 0 || bits >= 64) return value;
  return value & ((1ull << bits) - 1);
}

}  // namespace

void append_tree_cert(BitString& out, const TreeCert& cert) {
  out.append_uint(static_cast<std::uint64_t>(cert.width), kWidthBits);
  out.append_uint(static_cast<std::uint64_t>(cert.parent_port), kPortBits);
  out.append_bit(cert.is_root);
  out.append_uint(cert.root_id, cert.width);
  out.append_uint(cert.dist, cert.width);
  out.append_uint(cert.subtree, cert.width);
  out.append_uint(cert.total, cert.width);
}

BitString encode_tree_cert(const TreeCert& cert) {
  BitString out;
  append_tree_cert(out, cert);
  return out;
}

std::optional<TreeCert> read_tree_cert(BitReader& in) {
  TreeCert cert;
  cert.width = static_cast<int>(in.read_uint(kWidthBits));
  cert.parent_port = static_cast<int>(in.read_uint(kPortBits));
  cert.is_root = in.read_bit();
  cert.root_id = in.read_uint(cert.width);
  cert.dist = in.read_uint(cert.width);
  cert.subtree = in.read_uint(cert.width);
  cert.total = in.read_uint(cert.width);
  if (!in.ok()) return std::nullopt;
  return cert;
}

std::vector<TreeCert> make_tree_cert_labels(const Graph& g,
                                            const RootedTree& tree,
                                            int trunc_bits) {
  const int width =
      trunc_bits > 0
          ? trunc_bits
          : std::max(bit_width_for(g.max_id()), bit_width_for(
                static_cast<std::uint64_t>(g.n())));
  const std::vector<int> sizes = tree.subtree_sizes();
  std::vector<TreeCert> labels(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    TreeCert& cert = labels[static_cast<std::size_t>(v)];
    cert.width = width;
    cert.root_id = truncate(g.id(tree.root), trunc_bits);
    cert.dist = truncate(
        static_cast<std::uint64_t>(tree.dist[static_cast<std::size_t>(v)]),
        trunc_bits);
    cert.subtree = truncate(
        static_cast<std::uint64_t>(sizes[static_cast<std::size_t>(v)]),
        trunc_bits);
    cert.total = truncate(static_cast<std::uint64_t>(g.n()), trunc_bits);
    cert.parent_port =
        v == tree.root
            ? 0
            : g.port_of(v, tree.parent[static_cast<std::size_t>(v)]);
    cert.is_root = v == tree.root;
  }
  return labels;
}

bool cert_says_root(const TreeCert& cert) { return cert.is_root; }

bool check_tree_cert_at_center(
    const View& view, const std::vector<std::optional<TreeCert>>& certs,
    int trunc_bits, bool check_root_id) {
  const Ball& ball = view.ball;
  const int c = view.center;
  const auto& mine_opt = certs[static_cast<std::size_t>(c)];
  if (!mine_opt.has_value()) return false;
  const TreeCert& mine = *mine_opt;

  const bool honest = trunc_bits == 0;
  auto trunc = [&](std::uint64_t x) {
    return trunc_bits > 0 && trunc_bits < 64 ? (x & ((1ull << trunc_bits) - 1))
                                             : x;
  };

  if (honest) {
    // My id and n must fit in the declared width (otherwise the encoding
    // could not be exact, so some node must reject).
    if (check_root_id && bit_width_for(ball.id(c)) > mine.width) return false;
  } else if (mine.width != trunc_bits) {
    return false;
  }

  // Neighbour agreement on width, root id and total.
  for (const HalfEdge& h : ball.neighbors(c)) {
    const auto& other = certs[static_cast<std::size_t>(h.to)];
    if (!other.has_value()) return false;
    if (other->width != mine.width) return false;
    if (other->root_id != mine.root_id) return false;
    if (other->total != mine.total) return false;
  }

  // The explicit root claim must match the distance field (honest mode:
  // exactly; truncated mode: the genuine root still stores 0).
  if (cert_says_root(mine) && mine.dist != 0) return false;
  if (honest && !cert_says_root(mine) && mine.dist == 0) return false;

  if (cert_says_root(mine)) {
    // The root's id must equal the claimed root id, and the claimed total
    // must equal its own subtree count.
    if (check_root_id && trunc(ball.id(c)) != mine.root_id) return false;
    if (mine.total != mine.subtree) return false;
  } else {
    // My parent: the neighbour behind parent_port, whose distance is mine-1.
    if (mine.parent_port < 0 || mine.parent_port >= ball.degree(c)) {
      return false;
    }
    const int parent = ball.neighbor_at_port(c, mine.parent_port);
    const auto& pc = certs[static_cast<std::size_t>(parent)];
    if (!pc.has_value()) return false;
    if (honest) {
      if (pc->dist + 1 != mine.dist) return false;
    } else {
      if (trunc(pc->dist + 1) != mine.dist) return false;
    }
  }

  // Subtree counter: my subtree = 1 + sum over children (neighbours whose
  // parent port points back at me).  Ports are ranks in the *neighbour's*
  // adjacency list, which is why the certificate needs radius 2.
  std::uint64_t sum = 1;
  for (const HalfEdge& h : ball.neighbors(c)) {
    const TreeCert& other = *certs[static_cast<std::size_t>(h.to)];
    if (cert_says_root(other)) continue;
    if (other.parent_port < 0 || other.parent_port >= ball.degree(h.to)) {
      return false;
    }
    if (ball.neighbor_at_port(h.to, other.parent_port) == c) {
      sum += other.subtree;
    }
  }
  const std::uint64_t expected = honest ? sum : trunc(sum);
  return expected == mine.subtree;
}

std::vector<std::optional<TreeCert>> read_ball_tree_certs(
    const View& view, std::vector<BitReader>& readers) {
  std::vector<std::optional<TreeCert>> certs;
  certs.reserve(readers.size());
  for (BitReader& r : readers) certs.push_back(read_tree_cert(r));
  (void)view;
  return certs;
}

int tree_cert_bits(int n, NodeId max_id) {
  const int width = std::max(bit_width_for(max_id),
                             bit_width_for(static_cast<std::uint64_t>(n)));
  return 6 + 8 + 4 * width;
}

}  // namespace lcp
