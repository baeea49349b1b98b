#include "schemes/lcp0.hpp"

#include "algo/line_graph.hpp"

namespace lcp::schemes {

EulerianScheme::EulerianScheme()
    : verifier_(std::make_unique<LambdaVerifier>(1, [](const View& view) {
        return view.ball.degree(view.center) % 2 == 0;
      })) {}

bool EulerianScheme::holds(const Graph& g) const {
  for (int v = 0; v < g.n(); ++v) {
    if (g.degree(v) % 2 != 0) return false;
  }
  return true;
}

std::optional<Proof> EulerianScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return Proof::empty(g.n());
}

LineGraphScheme::LineGraphScheme()
    : verifier_(std::make_unique<LambdaVerifier>(
          beineke_radius(), [](const View& view) {
            // The ball is an induced subgraph of G, so any obstruction in it
            // is an obstruction in G; conversely line graphs are closed
            // under induced subgraphs, so yes-instances never trip this.
            return !contains_beineke_obstruction(view.ball.to_graph());
          })) {}

bool LineGraphScheme::holds(const Graph& g) const {
  return !contains_beineke_obstruction(g);
}

std::optional<Proof> LineGraphScheme::prove(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  return Proof::empty(g.n());
}

}  // namespace lcp::schemes
