// Local verifiers (Section 2.1).
//
// A local verifier is a computable function A(G, P, v) whose output depends
// only on the radius-r view of v, for a constant horizon r.  We enforce the
// locality syntactically: accept() receives a View and nothing else.
#ifndef LCP_CORE_VERIFIER_HPP_
#define LCP_CORE_VERIFIER_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "core/view.hpp"

namespace lcp {

/// Interface for constant-horizon distributed decision.
class LocalVerifier {
 public:
  virtual ~LocalVerifier() = default;

  /// The constant local horizon r.
  virtual int radius() const = 0;

  /// The output of the centre node given its radius-r view: 1 = accept.
  virtual bool accept(const View& view) const = 0;

  /// Batched evaluation: out[i] = accept(*views[i]) ? 1 : 0, in order.
  /// The default loops accept(); table-driven verifiers override it to
  /// amortise per-view locking and dispatch (local/lookup_table.hpp).
  /// Engines hand over chunks of freshly extracted views
  /// (CentreVerifier, core/engine.hpp).
  virtual void accept_batch(const View* const* views, std::size_t count,
                            std::uint8_t* out) const {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = accept(*views[i]) ? 1 : 0;
    }
  }
};

/// A verifier assembled from a radius and a lambda; handy for tests and for
/// one-off verifiers inside schemes.
class LambdaVerifier final : public LocalVerifier {
 public:
  LambdaVerifier(int radius, std::function<bool(const View&)> accept)
      : radius_(radius), accept_(std::move(accept)) {}

  int radius() const override { return radius_; }
  bool accept(const View& view) const override { return accept_(view); }

 private:
  int radius_;
  std::function<bool(const View&)> accept_;
};

}  // namespace lcp

#endif  // LCP_CORE_VERIFIER_HPP_
