#include "core/compose.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/view.hpp"

namespace lcp {

namespace {

// Length fields wider than this cannot describe a label that fits in
// memory; decode_label treats them as malformed before trusting a length.
constexpr int kMaxLengthFieldWidth = 60;

/// Restricts a radius-R view to radius r <= R.  The ball is an induced
/// subgraph whose adjacency order is the same deterministic function of
/// node ids as the host's, so re-extraction from the ball is
/// bit-identical to extraction from the original graph.  The result owns
/// its proof labels.
View restrict_view(const View& view, int radius) {
  Proof p;
  p.labels.assign(view.proofs.begin(), view.proofs.end());
  View restricted = extract_view(view.ball, p, view.center, radius);
  restricted.own_proofs();
  return restricted;
}

class ConjunctionVerifier final : public LocalVerifier {
 public:
  explicit ConjunctionVerifier(
      const std::vector<std::shared_ptr<const Scheme>>& parts)
      : parts_(&parts) {
    for (const auto& part : parts) {
      radius_ = std::max(radius_, part->verifier().radius());
    }
  }

  int radius() const override { return radius_; }

  bool accept(const View& view) const override {
    const int k = static_cast<int>(parts_->size());
    const int ball_n = view.ball.n();
    // Decode every ball label once, component-major; any malformed
    // framing rejects here.
    std::vector<std::vector<BitString>> slices(
        static_cast<std::size_t>(k),
        std::vector<BitString>(static_cast<std::size_t>(ball_n)));
    std::vector<BitString> parts;
    for (int i = 0; i < ball_n; ++i) {
      if (!ConjunctionScheme::decode_label(
              view.proofs[static_cast<std::size_t>(i)], k, &parts)) {
        return false;
      }
      for (int j = 0; j < k; ++j) {
        slices[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
            std::move(parts[static_cast<std::size_t>(j)]);
      }
    }
    // One scratch view per accept() (the input view is read-only): each
    // component swaps its slice of the proofs in, so the ball is copied
    // once, not once per component.
    View scratch;
    scratch.ball = view.ball;
    scratch.center = view.center;
    scratch.radius = view.radius;
    scratch.dist = view.dist;
    for (int j = 0; j < k; ++j) {
      const LocalVerifier& sub = (*parts_)[static_cast<std::size_t>(j)]
                                     ->verifier();
      // Each slice is consumed by exactly one component: move it.
      scratch.proofs.assign(std::move(slices[static_cast<std::size_t>(j)]));
      const bool ok = sub.radius() == view.radius
                          ? sub.accept(scratch)
                          : sub.accept(restrict_view(scratch, sub.radius()));
      if (!ok) return false;
    }
    return true;
  }

 private:
  const std::vector<std::shared_ptr<const Scheme>>* parts_;
  int radius_ = 0;
};

class PaddedVerifier final : public LocalVerifier {
 public:
  PaddedVerifier(const LocalVerifier& base, int radius)
      : base_(&base), radius_(radius) {}

  int radius() const override { return radius_; }

  bool accept(const View& view) const override {
    if (view.radius <= base_->radius()) return base_->accept(view);
    return base_->accept(restrict_view(view, base_->radius()));
  }

 private:
  const LocalVerifier* base_;
  int radius_;
};

class PaddedScheme final : public Scheme {
 public:
  PaddedScheme(std::shared_ptr<const Scheme> base, int radius)
      : base_(std::move(base)),
        verifier_(base_->verifier(), radius) {}

  std::string name() const override {
    return base_->name() + "@r=" + std::to_string(verifier_.radius());
  }
  bool holds(const Graph& g) const override { return base_->holds(g); }
  std::optional<Proof> prove(const Graph& g) const override {
    return base_->prove(g);
  }
  const LocalVerifier& verifier() const override { return verifier_; }
  int advertised_size(int n) const override {
    return base_->advertised_size(n);
  }

 private:
  std::shared_ptr<const Scheme> base_;
  PaddedVerifier verifier_;
};

Graph relabelled_copy(const Graph& g, const LabelMap& map) {
  Graph out = g;
  for (int v = 0; v < out.n(); ++v) out.set_label(v, map(g.label(v)));
  return out;
}

class RelabelVerifier final : public LocalVerifier {
 public:
  RelabelVerifier(const LocalVerifier& base, const LabelMap& map)
      : base_(&base), map_(&map) {}

  int radius() const override { return base_->radius(); }

  bool accept(const View& view) const override {
    View mapped = view;
    mapped.ball = Ball(relabelled_copy(view.ball.to_graph(), *map_));
    return base_->accept(mapped);
  }

 private:
  const LocalVerifier* base_;
  const LabelMap* map_;
};

class RelabelScheme final : public Scheme {
 public:
  RelabelScheme(std::shared_ptr<const Scheme> base, LabelMap map)
      : base_(std::move(base)),
        map_(std::move(map)),
        verifier_(base_->verifier(), map_) {}

  std::string name() const override {
    return "relabel(" + base_->name() + ")";
  }
  bool holds(const Graph& g) const override {
    return base_->holds(relabelled_copy(g, map_));
  }
  std::optional<Proof> prove(const Graph& g) const override {
    return base_->prove(relabelled_copy(g, map_));
  }
  const LocalVerifier& verifier() const override { return verifier_; }
  int advertised_size(int n) const override {
    return base_->advertised_size(n);
  }

 private:
  std::shared_ptr<const Scheme> base_;
  LabelMap map_;
  RelabelVerifier verifier_;
};

}  // namespace

std::shared_ptr<const Scheme> borrow(const Scheme& scheme) {
  return std::shared_ptr<const Scheme>(std::shared_ptr<const void>(),
                                       &scheme);
}

ConjunctionScheme::ConjunctionScheme(
    std::vector<std::shared_ptr<const Scheme>> parts)
    : parts_(std::move(parts)) {
  if (parts_.size() < 2) {
    throw std::invalid_argument(
        "conjunction: need at least two component schemes");
  }
  for (const auto& part : parts_) {
    if (part == nullptr) {
      throw std::invalid_argument("conjunction: null component scheme");
    }
  }
  verifier_ = std::make_unique<ConjunctionVerifier>(parts_);
}

ConjunctionScheme::~ConjunctionScheme() = default;

std::string ConjunctionScheme::name() const {
  std::string out;
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += " & ";
    out += parts_[i]->name();
  }
  return out;
}

bool ConjunctionScheme::holds(const Graph& g) const {
  for (const auto& part : parts_) {
    if (!part->holds(g)) return false;
  }
  return true;
}

std::optional<Proof> ConjunctionScheme::prove(const Graph& g) const {
  std::vector<Proof> proofs;
  proofs.reserve(parts_.size());
  for (const auto& part : parts_) {
    auto p = part->prove(g);
    if (!p.has_value()) return std::nullopt;
    if (static_cast<int>(p->labels.size()) != g.n()) return std::nullopt;
    proofs.push_back(std::move(*p));
  }
  Proof out;
  out.labels.resize(static_cast<std::size_t>(g.n()));
  std::vector<BitString> slices(parts_.size());
  for (int v = 0; v < g.n(); ++v) {
    for (std::size_t j = 0; j < parts_.size(); ++j) {
      slices[j] = proofs[j].labels[static_cast<std::size_t>(v)];
    }
    out.labels[static_cast<std::size_t>(v)] = encode_label(slices);
  }
  return out;
}

int ConjunctionScheme::advertised_size(int n) const {
  int sum = 0;
  for (const auto& part : parts_) {
    const int s = part->advertised_size(n);
    if (s < 0) return -1;
    sum += s;
  }
  return sum;
}

BitString ConjunctionScheme::encode_label(
    const std::vector<BitString>& slices) {
  bool all_empty = true;
  int width = 1;
  for (const BitString& s : slices) {
    if (!s.empty()) all_empty = false;
    width = std::max(
        width, bit_width_for(static_cast<std::uint64_t>(s.size())));
  }
  if (all_empty) return BitString();
  BitString out;
  out.append_uint(static_cast<std::uint64_t>(width), 6);
  for (const BitString& s : slices) {
    out.append_uint(static_cast<std::uint64_t>(s.size()), width);
  }
  for (const BitString& s : slices) out.append(s);
  return out;
}

bool ConjunctionScheme::decode_label(const BitString& label, int arity,
                                     std::vector<BitString>* slices) {
  slices->assign(static_cast<std::size_t>(arity), BitString());
  if (label.empty()) return true;  // the canonical all-slices-empty form
  BitReader r(label);
  const int width = static_cast<int>(r.read_uint(6));
  if (!r.ok() || width < 1 || width > kMaxLengthFieldWidth) return false;
  std::vector<std::uint64_t> lens(static_cast<std::size_t>(arity));
  for (int j = 0; j < arity; ++j) {
    lens[static_cast<std::size_t>(j)] = r.read_uint(width);
    // Bounding every length by the remaining payload keeps the decode loop
    // linear in the label even for adversarial length fields.
    if (!r.ok() ||
        lens[static_cast<std::size_t>(j)] >
            static_cast<std::uint64_t>(r.remaining())) {
      return false;
    }
  }
  for (int j = 0; j < arity; ++j) {
    BitString s;
    for (std::uint64_t b = 0; b < lens[static_cast<std::size_t>(j)]; ++b) {
      s.append_bit(r.read_bit());
    }
    (*slices)[static_cast<std::size_t>(j)] = std::move(s);
  }
  return r.exhausted();
}

bool ConjunctionScheme::split(const Proof& p,
                              std::vector<Proof>* parts) const {
  const int k = arity();
  const int n = static_cast<int>(p.labels.size());
  parts->assign(static_cast<std::size_t>(k), Proof::empty(n));
  std::vector<BitString> slices;
  for (int v = 0; v < n; ++v) {
    if (!decode_label(p.labels[static_cast<std::size_t>(v)], k, &slices)) {
      return false;
    }
    for (int j = 0; j < k; ++j) {
      (*parts)[static_cast<std::size_t>(j)]
          .labels[static_cast<std::size_t>(v)] =
          std::move(slices[static_cast<std::size_t>(j)]);
    }
  }
  return true;
}

std::unique_ptr<ConjunctionScheme> conjunction(
    std::vector<std::shared_ptr<const Scheme>> parts) {
  return std::make_unique<ConjunctionScheme>(std::move(parts));
}

std::unique_ptr<Scheme> radius_pad(std::shared_ptr<const Scheme> base,
                                   int radius) {
  if (base == nullptr) {
    throw std::invalid_argument("radius_pad: null base scheme");
  }
  if (radius < base->verifier().radius()) {
    throw std::invalid_argument(
        "radius_pad: target radius " + std::to_string(radius) +
        " below base radius " +
        std::to_string(base->verifier().radius()));
  }
  return std::make_unique<PaddedScheme>(std::move(base), radius);
}

std::unique_ptr<Scheme> radius_pad(const Scheme& base, int radius) {
  return radius_pad(borrow(base), radius);
}

std::unique_ptr<Scheme> relabel(std::shared_ptr<const Scheme> base,
                                LabelMap map) {
  if (base == nullptr || map == nullptr) {
    throw std::invalid_argument("relabel: null base scheme or label map");
  }
  return std::make_unique<RelabelScheme>(std::move(base), std::move(map));
}

std::unique_ptr<Scheme> relabel(const Scheme& base, LabelMap map) {
  return relabel(borrow(base), std::move(map));
}

}  // namespace lcp
