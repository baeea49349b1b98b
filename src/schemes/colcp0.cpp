#include "schemes/colcp0.hpp"

#include "algo/traversal.hpp"
#include "core/certificates.hpp"
#include "core/runner.hpp"

namespace lcp::schemes {

CoLcp0Scheme::CoLcp0Scheme(std::shared_ptr<const Scheme> inner)
    : inner_(inner) {
  const int radius = std::max(2, inner_->verifier().radius());
  auto inner_keep = inner_;
  verifier_ = std::make_unique<LambdaVerifier>(
      radius, [inner_keep](const View& v) {
        std::vector<std::optional<TreeCert>> certs;
        for (const BitString& b : v.proofs) {
          BitReader r(b);
          certs.push_back(read_tree_cert(r));
        }
        if (!check_tree_cert_at_center(v, certs, /*trunc_bits=*/0)) {
          return false;
        }
        if (!cert_says_root(*certs[static_cast<std::size_t>(v.center)])) {
          return true;
        }
        // I am the designated witness: the inner LCP(0) verifier must
        // reject here.  Its view is my (possibly smaller) ball with an
        // empty proof.
        const int inner_radius = inner_keep->verifier().radius();
        const Proof empty = Proof::empty(v.ball.n());
        const View inner_view =
            extract_view(v.ball, empty, v.center, inner_radius);
        return !inner_keep->verifier().accept(inner_view);
      });
}

std::string CoLcp0Scheme::name() const {
  return "co(" + inner_->name() + ")";
}

bool CoLcp0Scheme::holds(const Graph& g) const {
  return is_connected(g) && !inner_->holds(g);
}

std::optional<Proof> CoLcp0Scheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  // Soundness of the inner scheme guarantees a rejecting node exists.
  const RunResult inner =
      default_engine().run(g, Proof::empty(g.n()), inner_->verifier());
  if (inner.rejecting.empty()) return std::nullopt;
  const int root = inner.rejecting.front();
  const std::vector<TreeCert> certs =
      make_tree_cert_labels(g, bfs_tree(g, root), /*trunc_bits=*/0);
  Proof proof = Proof::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    append_tree_cert(proof.labels[static_cast<std::size_t>(v)],
                     certs[static_cast<std::size_t>(v)]);
  }
  return proof;
}

}  // namespace lcp::schemes
