#include "local/port_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/certificates.hpp"
#include "graph/generators.hpp"

namespace lcp {

View anonymize_view(const View& view) {
  // Rank-compress the ids: the smallest ball id becomes 1, the next 2, ...
  // This preserves the relative order of ids and therefore every port
  // number, while destroying the ids' actual values.  (Rank compression
  // technically still exposes a total order; our M2 verifiers use ports
  // only, which the test suite checks by shuffling ids and asserting
  // verdicts are unchanged.)
  std::vector<NodeId> ids = view.ball.ids();
  std::vector<NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  std::vector<NodeId> ranked(ids.size());
  for (std::size_t v = 0; v < ids.size(); ++v) {
    ranked[v] = static_cast<NodeId>(
        std::lower_bound(sorted.begin(), sorted.end(), ids[v]) -
        sorted.begin() + 1);
  }
  View anon;
  anon.ball = Ball(gen::with_ids(view.ball.to_graph(), ranked));
  anon.center = view.center;
  anon.radius = view.radius;
  anon.proofs = view.proofs;
  anon.dist = view.dist;
  return anon;
}

DfsIntervals dfs_intervals(const Graph& g, int root) {
  DfsIntervals out;
  out.tree.root = root;
  out.tree.parent.assign(static_cast<std::size_t>(g.n()), -1);
  out.tree.dist.assign(static_cast<std::size_t>(g.n()), -1);
  out.discovery.assign(static_cast<std::size_t>(g.n()), 0);
  out.finish.assign(static_cast<std::size_t>(g.n()), 0);

  std::uint64_t time = 0;
  // Iterative DFS; children visited in port order.
  struct Frame {
    int node;
    int next_port;
  };
  std::vector<Frame> stack;
  out.tree.parent[static_cast<std::size_t>(root)] = root;
  out.tree.dist[static_cast<std::size_t>(root)] = 0;
  out.discovery[static_cast<std::size_t>(root)] = ++time;
  stack.push_back(Frame{root, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const int v = frame.node;
    bool descended = false;
    while (frame.next_port < g.degree(v)) {
      const int u = g.neighbor_at_port(v, frame.next_port++);
      if (out.tree.parent[static_cast<std::size_t>(u)] >= 0) continue;
      out.tree.parent[static_cast<std::size_t>(u)] = v;
      out.tree.dist[static_cast<std::size_t>(u)] =
          out.tree.dist[static_cast<std::size_t>(v)] + 1;
      out.discovery[static_cast<std::size_t>(u)] = ++time;
      stack.push_back(Frame{u, 0});
      descended = true;
      break;
    }
    if (!descended) {
      out.finish[static_cast<std::size_t>(v)] = ++time;
      stack.pop_back();
    }
  }
  return out;
}

NodeId M1ToM2Scheme::synthesized_id(std::uint64_t x, std::uint64_t y,
                                    int width) {
  return (x << (width + 1)) + y + 1;
}

namespace {

constexpr int kIntervalWidthBits = 6;

struct M2Fields {
  TreeCert cert;
  int width = 0;
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  BitString inner;
};

std::optional<M2Fields> read_m2_fields(const BitString& label) {
  BitReader r(label);
  M2Fields f;
  const auto cert = read_tree_cert(r);
  if (!cert.has_value()) return std::nullopt;
  f.cert = *cert;
  f.width = static_cast<int>(r.read_uint(kIntervalWidthBits));
  f.x = r.read_uint(f.width);
  f.y = r.read_uint(f.width);
  if (!r.ok()) return std::nullopt;
  f.inner = r.rest();
  return f;
}

class M1ToM2Verifier final : public M2Verifier {
 public:
  M1ToM2Verifier(std::shared_ptr<const Scheme> inner)
      : inner_(std::move(inner)),
        radius_(std::max(2, inner_->verifier().radius())) {}

  int radius() const override { return radius_; }

  bool accept_anonymous(const View& anon) const override {
    const Ball& ball = anon.ball;
    const int c = anon.center;

    std::vector<std::optional<M2Fields>> fields;
    fields.reserve(anon.proofs.size());
    for (const BitString& label : anon.proofs) {
      fields.push_back(read_m2_fields(label));
    }
    if (!fields[static_cast<std::size_t>(c)].has_value()) return false;
    const M2Fields& mine = *fields[static_cast<std::size_t>(c)];

    // 1. Spanning-tree certificate without identifier checks; root
    //    uniqueness comes from the leader promise below.
    std::vector<std::optional<TreeCert>> certs;
    for (const auto& f : fields) {
      certs.push_back(f.has_value() ? std::optional<TreeCert>(f->cert)
                                    : std::nullopt);
    }
    if (!check_tree_cert_at_center(anon, certs, /*trunc_bits=*/0,
                                   /*check_root_id=*/false)) {
      return false;
    }
    // 2. Root <=> leader label.
    const bool is_root = cert_says_root(mine.cert);
    if (is_root != (ball.label(c) == kLeaderLabel)) return false;

    // 3. DFS intervals: width agreement + nesting relations.
    for (const HalfEdge& h : ball.neighbors(c)) {
      const auto& f = fields[static_cast<std::size_t>(h.to)];
      if (!f.has_value() || f->width != mine.width) return false;
    }
    if (mine.y <= mine.x) return false;
    // Children = neighbours whose parent port points back at the centre.
    std::vector<const M2Fields*> children;
    for (const HalfEdge& h : ball.neighbors(c)) {
      const M2Fields& f = *fields[static_cast<std::size_t>(h.to)];
      if (cert_says_root(f.cert)) continue;
      if (f.cert.parent_port < 0 || f.cert.parent_port >= ball.degree(h.to)) {
        return false;
      }
      if (ball.neighbor_at_port(h.to, f.cert.parent_port) == c) {
        children.push_back(&f);
      }
    }
    std::sort(children.begin(), children.end(),
              [](const M2Fields* a, const M2Fields* b) { return a->x < b->x; });
    std::uint64_t cursor = mine.x;
    for (const M2Fields* child : children) {
      if (child->x != cursor + 1) return false;
      cursor = child->y;
    }
    if (mine.y != cursor + 1) return false;
    if (is_root) {
      if (mine.x != 1) return false;
      if (mine.y != 2 * mine.cert.total) return false;
    }

    // 4. Simulate the id-based inner verifier on synthesised interval ids.
    std::vector<NodeId> synth(static_cast<std::size_t>(ball.n()));
    Proof inner_proof = Proof::empty(ball.n());
    for (int v = 0; v < ball.n(); ++v) {
      const auto& f = fields[static_cast<std::size_t>(v)];
      if (!f.has_value()) return false;
      synth[static_cast<std::size_t>(v)] =
          M1ToM2Scheme::synthesized_id(f->x, f->y, mine.width);
      inner_proof.labels[static_cast<std::size_t>(v)] = f->inner;
    }
    // Interval pairs are distinct whenever the local checks pass globally;
    // guard anyway (duplicate ids would throw in with_ids).
    {
      std::vector<NodeId> sorted = synth;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        return false;
      }
    }
    const Graph renamed = gen::with_ids(ball.to_graph(), synth);
    const View inner_view = extract_view(renamed, inner_proof, c,
                                         inner_->verifier().radius());
    return inner_->verifier().accept(inner_view);
  }

 private:
  std::shared_ptr<const Scheme> inner_;
  int radius_;
};

}  // namespace

M1ToM2Scheme::M1ToM2Scheme(std::shared_ptr<const Scheme> inner)
    : inner_(inner), verifier_(std::make_unique<M1ToM2Verifier>(inner)) {}

std::string M1ToM2Scheme::name() const {
  return "m2-port-model(" + inner_->name() + ")";
}

bool M1ToM2Scheme::holds(const Graph& g) const {
  int leaders = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (g.label(v) == kLeaderLabel) ++leaders;
  }
  return leaders == 1 && is_connected(g) && inner_->holds(g);
}

std::optional<Proof> M1ToM2Scheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const int leader = *g.find_label(kLeaderLabel);
  const DfsIntervals dfs = dfs_intervals(g, leader);
  const int width = bit_width_for(static_cast<std::uint64_t>(2 * g.n()));

  std::vector<NodeId> synth(static_cast<std::size_t>(g.n()));
  for (int v = 0; v < g.n(); ++v) {
    synth[static_cast<std::size_t>(v)] = synthesized_id(
        dfs.discovery[static_cast<std::size_t>(v)],
        dfs.finish[static_cast<std::size_t>(v)], width);
  }
  const Graph renamed = gen::with_ids(g, synth);
  const std::optional<Proof> inner_proof = inner_->prove(renamed);
  if (!inner_proof.has_value()) return std::nullopt;

  std::vector<TreeCert> certs = make_tree_cert_labels(g, dfs.tree, 0);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    TreeCert cert = certs[static_cast<std::size_t>(v)];
    cert.root_id = 0;  // the port model carries no identifiers
    BitString label;
    append_tree_cert(label, cert);
    label.append_uint(static_cast<std::uint64_t>(width), kIntervalWidthBits);
    label.append_uint(dfs.discovery[static_cast<std::size_t>(v)], width);
    label.append_uint(dfs.finish[static_cast<std::size_t>(v)], width);
    label.append(inner_proof->labels[static_cast<std::size_t>(v)]);
    proof.labels[static_cast<std::size_t>(v)] = std::move(label);
  }
  return proof;
}

const LocalVerifier& M1ToM2Scheme::verifier() const { return *verifier_; }

namespace {

/// Minimum-id node: the canonical leader appointment.
int min_id_node(const Graph& g) {
  int best = 0;
  for (int v = 1; v < g.n(); ++v) {
    if (g.id(v) < g.id(best)) best = v;
  }
  return best;
}

class M2ToM1Verifier final : public LocalVerifier {
 public:
  explicit M2ToM1Verifier(std::shared_ptr<const Scheme> inner)
      : inner_(std::move(inner)),
        radius_(std::max(2, inner_->verifier().radius())) {}

  int radius() const override { return radius_; }

  bool accept(const View& view) const override {
    // Label layout: tree certificate + leader bit + inner proof.
    std::vector<std::optional<TreeCert>> certs;
    std::vector<bool> leader_bits;
    Proof inner_proof = Proof::empty(view.ball.n());
    for (std::size_t i = 0; i < view.proofs.size(); ++i) {
      BitReader r(view.proofs[i]);
      auto cert = read_tree_cert(r);
      const bool leader = r.read_bit();
      if (!r.ok()) cert.reset();
      certs.push_back(cert);
      leader_bits.push_back(leader);
      inner_proof.labels[i] = r.rest();
    }
    if (!check_tree_cert_at_center(view, certs, /*trunc_bits=*/0)) {
      return false;
    }
    // Leader bit <=> certificate root: exactly one appointed leader.
    const auto& mine = certs[static_cast<std::size_t>(view.center)];
    if (leader_bits[static_cast<std::size_t>(view.center)] !=
        cert_says_root(*mine)) {
      return false;
    }
    // Simulate the M2 verifier with the appointed leader as node label.
    Graph labelled = view.ball.to_graph();
    for (int v = 0; v < labelled.n(); ++v) {
      labelled.set_label(v, leader_bits[static_cast<std::size_t>(v)]
                                ? kLeaderLabel
                                : 0);
    }
    const View inner_view = extract_view(labelled, inner_proof, view.center,
                                         inner_->verifier().radius());
    return inner_->verifier().accept(inner_view);
  }

 private:
  std::shared_ptr<const Scheme> inner_;
  int radius_;
};

}  // namespace

M2ToM1Scheme::M2ToM1Scheme(std::shared_ptr<const Scheme> inner_m2)
    : inner_(inner_m2),
      verifier_(std::make_unique<M2ToM1Verifier>(inner_m2)) {}

std::string M2ToM1Scheme::name() const {
  return "m1-ids(" + inner_->name() + ")";
}

bool M2ToM1Scheme::holds(const Graph& g) const {
  if (!is_connected(g) || g.n() == 0) return false;
  // The inner property is evaluated with the canonical leader appointed
  // (the property itself must not depend on which node leads).
  Graph labelled = g;
  for (int v = 0; v < labelled.n(); ++v) labelled.set_label(v, 0);
  labelled.set_label(min_id_node(g), kLeaderLabel);
  return inner_->holds(labelled);
}

std::optional<Proof> M2ToM1Scheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  const int leader = min_id_node(g);
  Graph labelled = g;
  for (int v = 0; v < labelled.n(); ++v) labelled.set_label(v, 0);
  labelled.set_label(leader, kLeaderLabel);
  const auto inner_proof = inner_->prove(labelled);
  if (!inner_proof.has_value()) return std::nullopt;
  const std::vector<TreeCert> certs =
      make_tree_cert_labels(g, bfs_tree(g, leader), /*trunc_bits=*/0);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    BitString& label = proof.labels[static_cast<std::size_t>(v)];
    append_tree_cert(label, certs[static_cast<std::size_t>(v)]);
    label.append_bit(v == leader);
    label.append(inner_proof->labels[static_cast<std::size_t>(v)]);
  }
  return proof;
}

const LocalVerifier& M2ToM1Scheme::verifier() const { return *verifier_; }

}  // namespace lcp
