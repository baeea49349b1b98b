// Library workloads: one caller, one VerificationSession, closed loop.
//
//   churn-incremental  maximal matching under preferential churn on the
//                      incremental engine, maintained by the matching
//                      ProofMaintainer (delta, repair, view patching).
//   relabel-spot       bipartite grid under uniform node relabels on the
//                      spot-check tier (1% budget, incremental inner),
//                      with an audit every 50 batches.
//   churn-sharded      churn-incremental's graph and stream on sharded:4.
//
// An untraced run times session.apply() per batch, in epochs (see
// closed_loop).  A traced run applies its first epoch untraced while
// recording each batch's verdict and state fingerprint, then rebuilds the
// same stack from its public parts (DeltaTracker, ProofMaintainer,
// ExecutionEngine) and replays the recorded batches with a span around
// every call into a layer.  The replay must reproduce every recorded
// verdict and fingerprint.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/matching.hpp"
#include "bench/churn_stream.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/sharded_engine.hpp"
#include "core/spot_check.hpp"
#include "core/view.hpp"
#include "dynamic/maintainer.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "harness.hpp"
#include "schemes/matching_schemes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lcp::DeltaTracker;
using lcp::ExecutionEngine;
using lcp::Graph;
using lcp::IncrementalEngine;
using lcp::MutationBatch;
using lcp::Proof;
using lcp::RunResult;
using lcp::ShardedEngine;
using lcp::SpotCheckEngine;
using lcp::VerificationSession;

constexpr int kChurnNodes = 10000;
constexpr std::uint32_t kChurnGraphSeed = 5151;
constexpr int kGridSide = 300;
constexpr int kRelabelsPerBatch = 50;
constexpr int kAuditEvery = 50;
// Timed set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

struct Config {
  bool churn = true;
  std::string scheme;
  std::string engine;
  int check_every = 0;    ///< batches between reference comparisons
  int epoch_batches = 0;  ///< batches per epoch (see closed_loop)
  int traced_batches = 0;  ///< batches a traced run records and replays
  /// Steps a traced run also replays on sharded:4 (0: none), so the
  /// sharded layers get their per-layer split on this workload.
  int sharded_replay_steps = 0;
};

Config config_for(const std::string& workload) {
  if (workload == "churn-incremental") {
    return {true, "maximal-matching", "incremental", 50, 100, 1000, 100};
  }
  if (workload == "churn-sharded") {
    return {true, "maximal-matching", "sharded:4", 25, 25, 100};
  }
  if (workload == "relabel-spot") {
    return {false, "bipartite", "spotcheck:0.01", 50, 100, 400};
  }
  throw std::invalid_argument("not a library workload: " + workload);
}

Graph make_graph(const Config& c) {
  if (!c.churn) return lcp::gen::grid(kGridSide, kGridSide);
  Graph g = lcp::gen::random_connected(kChurnNodes, 2.0 / kChurnNodes,
                                       kChurnGraphSeed);
  const std::vector<bool> matched = lcp::greedy_maximal_matching(g);
  for (int e = 0; e < g.m(); ++e) {
    if (matched[static_cast<std::size_t>(e)]) {
      g.set_edge_label(e, lcp::schemes::MaximalMatchingScheme::kMatchedBit);
    }
  }
  return g;
}

/// The seeded batch generator: the churn stream, or uniform relabels.
class BatchSource {
 public:
  BatchSource(const Config& c, std::uint64_t seed)
      : churn_(c.churn),
        stream_(lcp::bench::ChurnStream::Options{
            .grow_probability = 0.5,
            .attach_edges = 2,
            .churn_edges = 8,
            .window = 10,
            .seed = derive_seed(seed, 1)}),
        rng_(derive_seed(seed, 2)) {}

  void next(int it, const Graph& g, MutationBatch* batch) {
    if (churn_) {
      stream_.next(it, g, batch);
      return;
    }
    std::uniform_int_distribution<int> node(0, g.n() - 1);
    for (int i = 0; i < kRelabelsPerBatch; ++i) {
      batch->set_node_label(node(rng_), rng_() % 1024);
    }
  }

 private:
  bool churn_;
  lcp::bench::ChurnStream stream_;
  std::mt19937 rng_;
};

/// A session pinned to a heap address (sessions are not movable).
struct LiveSession {
  explicit LiveSession(VerificationSession::Builder&& b)
      : session(b.build()) {}
  VerificationSession session;
  RunResult first;  ///< the verdict of the first full sweep
};

std::unique_ptr<LiveSession> build_session(const Config& c, Graph g) {
  VerificationSession::Builder b = VerificationSession::on(std::move(g));
  b.scheme(c.scheme).engine(c.engine).maintain(c.churn);
  auto live = std::make_unique<LiveSession>(std::move(b));
  live->first = live->session.verify();  // the first sweep is set-up work
  return live;
}

bool matches_reference(const Graph& g, const Proof& p,
                       const lcp::LocalVerifier& a, const RunResult& r) {
  const RunResult ref = lcp::sweep_sequential(g, p, a);
  return ref.all_accept == r.all_accept && ref.rejecting == r.rejecting;
}

/// One applied batch, as the untraced session saw it.
struct Step {
  MutationBatch batch;
  bool audit = false;
  bool all_accept = true;
  std::vector<int> rejecting;
  std::uint64_t fingerprint = 0;
};

/// One epoch's per-batch timings, in recording order.
struct Epoch {
  std::vector<double> apply_us;    ///< session.apply() wall time
  std::vector<double> request_us;  ///< due (previous verdict) to verdict
};

struct LoopResult {
  std::vector<Epoch> epochs;
  std::vector<double> setup_s;  ///< the timed set-ups
  std::vector<Step> steps;  ///< the first epoch, filled only when recording
  std::unique_ptr<LiveSession> last;  ///< the last epoch's session

  std::vector<double> all_apply_us() const {
    std::vector<double> out;
    for (const Epoch& e : epochs) {
      out.insert(out.end(), e.apply_us.begin(), e.apply_us.end());
    }
    return out;
  }
};

/// The closed loop, in epochs.  The run starts with kSetups timed set-ups
/// (graph generation, prove, first full sweep).  Each epoch then rebuilds
/// the session from the generated graph (untimed) and applies up to
/// `batches` batches of its own seeded stream, so every epoch does
/// statistically the same work: the churn stream grows the graph, which
/// would otherwise make a run's later batches dearer and tie the result to
/// how many batches fitted.  Epochs repeat until `seconds` of wall time
/// have passed since the run started; a recording run stops after its
/// first epoch.  Reference comparisons run after each set-up, every
/// c.check_every batches and at each epoch's end, outside the timed spans.
LoopResult closed_loop(const Config& c, std::uint64_t seed, double seconds,
                       bool record, Report* report) {
  LoopResult out;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(seconds * 1e9));
  Graph pristine;
  for (int i = 0; i < kSetups; ++i) {
    out.last.reset();  // one session at a time keeps peak RSS honest
    const Clock::time_point t0 = Clock::now();
    Graph g = make_graph(c);
    out.last = build_session(c, g);
    out.setup_s.push_back(static_cast<double>(to_ns(Clock::now() - t0)) / 1e9);
    pristine = std::move(g);
    VerificationSession& s = out.last->session;
    if (!out.last->first.all_accept ||
        !matches_reference(s.graph(), s.proof(), s.scheme().verifier(),
                           out.last->first)) {
      report->fail("initial state is not an accepted instance");
      return out;
    }
  }
  const int batches = record ? c.traced_batches : c.epoch_batches;
  for (int epoch = 0; epoch == 0 || (!record && Clock::now() < deadline);
       ++epoch) {
    out.last.reset();
    out.last = build_session(c, pristine);
    VerificationSession& s = out.last->session;
    SpotCheckEngine* spot = s.spot_check_engine();
    BatchSource source(c, derive_seed(seed, 100 + static_cast<std::uint64_t>(epoch)));
    Epoch times;
    RunResult last;
    for (int it = 0; it < batches && Clock::now() < deadline; ++it) {
      // A closed-loop caller's next request is due as soon as the previous
      // verdict returned.
      const Clock::time_point due = Clock::now();
      MutationBatch batch;
      source.next(it, s.graph(), &batch);
      const bool audit = spot != nullptr && (it + 1) % kAuditEvery == 0;
      if (audit) spot->request_audit();
      const Clock::time_point sent = Clock::now();
      ++report->attempted;
      try {
        last = s.apply(batch);
      } catch (const std::exception& e) {
        ++report->failed;
        report->fail("apply threw at batch " + std::to_string(it) + ": " +
                     e.what());
        return out;
      }
      const Clock::time_point done = Clock::now();
      times.apply_us.push_back(ns_to_us(static_cast<double>(to_ns(done - sent))));
      times.request_us.push_back(ns_to_us(static_cast<double>(to_ns(done - due))));
      if (record) {
        Step step;
        step.batch = std::move(batch);
        step.audit = audit;
        step.all_accept = last.all_accept;
        step.rejecting = last.rejecting;
        step.fingerprint = s.tracker().state_fingerprint();
        out.steps.push_back(std::move(step));
      }
      if ((it + 1) % c.check_every == 0 && it + 1 < batches &&
          !matches_reference(s.graph(), s.proof(), s.scheme().verifier(),
                             last)) {
        report->fail("verdict differs from sweep_sequential after batch " +
                     std::to_string(it) + " of epoch " + std::to_string(epoch));
      }
    }
    if (!times.apply_us.empty() &&
        !matches_reference(s.graph(), s.proof(), s.scheme().verifier(), last)) {
      report->fail("verdict differs from sweep_sequential at the end of "
                   "epoch " + std::to_string(epoch));
    }
    out.epochs.push_back(std::move(times));
  }
  return out;
}

/// relabel-spot's planted tamper: flip one proof bit through the tracker,
/// request an audit, and require the audit to REJECT with exactly the
/// reference's rejecting centres; then restore and require ACCEPT.
void check_planted_tamper(LiveSession& live, std::uint64_t seed,
                          Report* report) {
  VerificationSession& s = live.session;
  SpotCheckEngine* spot = s.spot_check_engine();
  if (spot == nullptr) return;
  const int v = static_cast<int>(derive_seed(seed, 3) %
                                 static_cast<std::uint32_t>(s.graph().n()));
  const lcp::BitString original =
      s.proof().labels[static_cast<std::size_t>(v)];
  if (original.empty()) {
    report->fail("tamper target has an empty proof label");
    return;
  }
  lcp::BitString tampered;
  for (int i = 0; i < original.size(); ++i) {
    tampered.append_bit(i == 0 ? !original.bit(i) : original.bit(i));
  }
  MutationBatch plant;
  plant.set_proof_label(v, tampered);
  s.tracker().apply(plant);
  spot->request_audit();
  const RunResult audited = s.verify();
  const RunResult ref = lcp::sweep_sequential(s.graph(), s.proof(),
                                              s.scheme().verifier());
  if (audited.all_accept || ref.all_accept ||
      audited.rejecting != ref.rejecting) {
    report->fail("audit of the planted tamper did not reject exactly the "
                 "reference's centres");
  }
  MutationBatch restore;
  restore.set_proof_label(v, original);
  s.tracker().apply(restore);
  spot->request_audit();
  if (!s.verify().all_accept) {
    report->fail("audit after restoring the tamper did not accept");
  }
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

/// Where the next engine-level span should hang (set by the replay loop).
struct SpanContext {
  int parent = -1;
  std::uint64_t request = 0;
};

/// A pass-through engine that records a span around every run() of the
/// engine it wraps; used for the spot-check tier's inner engine.
class TracedEngine final : public ExecutionEngine {
 public:
  TracedEngine(std::unique_ptr<ExecutionEngine> inner, SpanRecorder* spans,
               const char* span_name, const SpanContext* context)
      : inner_(std::move(inner)),
        spans_(spans),
        span_name_(span_name),
        context_(context) {}

  std::string name() const override { return inner_->name(); }
  RunResult run(const Graph& g, const Proof& p,
                const lcp::LocalVerifier& a) override {
    return spans_->wrap(span_name_, context_->parent, context_->request,
                        [&] { return inner_->run(g, p, a); });
  }
  bool attach_tracker(DeltaTracker* tracker) override {
    return inner_->attach_tracker(tracker);
  }
  DeltaTracker* attached_tracker() const override {
    return inner_->attached_tracker();
  }

 private:
  std::unique_ptr<ExecutionEngine> inner_;
  SpanRecorder* spans_;
  const char* span_name_;
  const SpanContext* context_;
};

/// The stack VerificationSession composes, assembled from public parts.
struct Stack {
  Graph graph;
  Proof proof;
  std::unique_ptr<lcp::Scheme> scheme;
  std::unique_ptr<DeltaTracker> tracker;
  std::unique_ptr<ExecutionEngine> engine;
  IncrementalEngine* incremental = nullptr;
  ShardedEngine* sharded = nullptr;
  SpotCheckEngine* spot = nullptr;
  std::unique_ptr<lcp::dynamic::ProofMaintainer> maintainer;
  bool bound = false;
  SpanContext context;
};

/// Builds the engine the session builder builds for `spec`, with the
/// session's defaults (state verification off: the tracker is the only
/// mutation channel).
void build_engine(const std::string& spec, SpanRecorder* spans, Stack* st) {
  lcp::IncrementalEngineOptions incremental_options;
  incremental_options.verify_state = false;
  if (spec == "incremental") {
    auto e = std::make_unique<IncrementalEngine>(incremental_options);
    st->incremental = e.get();
    st->engine = std::move(e);
  } else if (spec.rfind("sharded", 0) == 0) {
    lcp::ShardedEngineOptions options = lcp::parse_sharded_spec(spec);
    options.verify_state = false;
    auto e = std::make_unique<ShardedEngine>(std::move(options));
    st->sharded = e.get();
    st->engine = std::move(e);
  } else {
    const lcp::SpotCheckSpec parsed = lcp::parse_spotcheck_spec(spec);
    if (parsed.inner != "incremental") {
      throw std::invalid_argument("replay supports an incremental inner");
    }
    auto inner = std::make_unique<IncrementalEngine>(incremental_options);
    st->incremental = inner.get();
    auto traced = std::make_unique<TracedEngine>(
        std::move(inner), spans, "incremental.run", &st->context);
    auto e = std::make_unique<SpotCheckEngine>(std::move(traced),
                                               parsed.options);
    st->spot = e.get();
    st->engine = std::move(e);
  }
}

std::vector<int> touched_nodes(const MutationBatch& batch) {
  std::vector<int> touched;
  for (const MutationBatch::Op& op : batch.ops()) {
    if (op.u >= 0) touched.push_back(op.u);
    if (op.v >= 0) touched.push_back(op.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

/// Centres whose ball a batch touched, from the tracker's dirty records
/// (for engines that do not expose their dirty set).
std::vector<int> dirty_centres_since(const DeltaTracker& tracker,
                                     std::uint64_t since, int radius) {
  std::vector<int> out;
  const auto records = tracker.records_since(since);
  if (!records) return out;
  for (const lcp::DirtyRecord* rec : *records) {
    out.insert(out.end(), rec->structural_dirty.begin(),
               rec->structural_dirty.end());
    for (const auto* epicentres : {&rec->proof_nodes, &rec->relabeled_nodes}) {
      for (int v : *epicentres) {
        const std::vector<int> ball =
            lcp::ball_nodes(tracker.graph(), v, radius);
        out.insert(out.end(), ball.begin(), ball.end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The delta-path counters the incremental and sharded engines share.
struct DeltaCounters {
  double reverified = 0, patched = 0, patch_fallbacks = 0, reextracted = 0,
         full_sweeps = 0, fallbacks = 0;

  DeltaCounters operator-(const DeltaCounters& o) const {
    return {reverified - o.reverified,   patched - o.patched,
            patch_fallbacks - o.patch_fallbacks,
            reextracted - o.reextracted, full_sweeps - o.full_sweeps,
            fallbacks - o.fallbacks};
  }
};

template <typename Stats>
DeltaCounters counters_of(const Stats& s) {
  return {static_cast<double>(s.nodes_reverified),
          static_cast<double>(s.views_patched),
          static_cast<double>(s.patch_fallbacks),
          static_cast<double>(s.reextractions),
          static_cast<double>(s.full_sweeps),
          static_cast<double>(s.fallbacks)};
}

/// On churn-sharded these come from the sharded engine, so the two churn
/// workloads report comparable incremental.* rows.
DeltaCounters delta_counters(const Stack& st) {
  if (st.incremental != nullptr) return counters_of(st.incremental->stats());
  if (st.sharded != nullptr) return counters_of(st.sharded->stats());
  return {};
}

const char* engine_span_name(const Stack& st, bool audit) {
  if (st.spot != nullptr) return audit ? "spot_check.audit" : "spot_check.run";
  if (st.sharded != nullptr) return "sharded.run";
  return "incremental.run";
}

/// Replays `steps` through the composed stack, checks that it reproduces
/// every recorded verdict and fingerprint, and reports the per-layer
/// metrics.  A pseudo-random half of the batches is traced (a span around
/// every call into a layer); the other half runs with spans off, and the
/// ratio of the two halves' median batch times is the tracing overhead.
/// Interleaving keeps drift over the run out of that ratio.
void replay(const Config& c, const std::vector<Step>& steps,
            SpanRecorder* spans, Report* report) {
  spans->set_enabled(false);
  Stack st;
  st.scheme = lcp::builtin_registry().build(c.scheme);
  st.graph = make_graph(c);
  build_engine(c.engine, spans, &st);
  const lcp::LocalVerifier& verifier = st.scheme->verifier();
  const int radius = verifier.radius();

  // Session build: prove, bind the tracker and maintainer, first sweep.
  const Clock::time_point build_start = Clock::now();
  auto initial = st.scheme->prove(st.graph);
  st.proof = initial ? std::move(*initial) : Proof::empty(st.graph.n());
  st.tracker = std::make_unique<DeltaTracker>(st.graph, st.proof, radius);
  st.engine->attach_tracker(st.tracker.get());
  if (c.churn) {
    st.maintainer =
        lcp::make_maintainer_for(*st.scheme, lcp::builtin_registry());
  }
  st.bound = st.maintainer != nullptr && st.maintainer->bind(st.graph, st.proof);
  st.engine->run(st.graph, st.proof, verifier);
  const double build_s =
      static_cast<double>(to_ns(Clock::now() - build_start)) / 1e9;

  const DeltaCounters counters0 = delta_counters(st);
  const ShardedEngine::Stats sh0 =
      st.sharded ? st.sharded->stats() : ShardedEngine::Stats{};
  const lcp::TransportStats tr0 =
      st.sharded ? st.sharded->transport().stats() : lcp::TransportStats{};
  const SpotCheckEngine::Stats sp0 =
      st.spot ? st.spot->stats() : SpotCheckEngine::Stats{};

  double ops = 0, repair_ops = 0, declines = 0;
  double accept_ns = 0, accept_sampled_ns = 0, balls = 0;
  double skew_sum = 0, skew_batches = 0, pool_sum = 0, miss_sum = 0;
  std::vector<double> batch_us[2];  // [untraced, traced]
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const std::uint64_t gen_before = st.tracker->generation();
    const bool traced = (derive_seed(i, 5) & 1) != 0;
    spans->set_enabled(traced);
    const Clock::time_point batch_start = Clock::now();
    const int root = spans->open("batch", -1, i);
    spans->wrap("delta.apply", root, i,
                [&] { st.tracker->apply(step.batch); });
    ops += static_cast<double>(step.batch.size());
    MutationBatch repair;
    bool repaired = false;
    if (st.bound) {
      const bool ok = spans->wrap("dynamic.repair", root, i, [&] {
        return st.maintainer->repair(st.graph, st.proof, step.batch, &repair);
      });
      if (ok) {
        repaired = true;
        repair_ops += static_cast<double>(repair.size());
        ops += static_cast<double>(repair.size());
        if (!repair.empty()) {
          spans->wrap("delta.apply", root, i,
                      [&] { st.tracker->apply(repair); });
          if (st.spot != nullptr) st.spot->note_repair(touched_nodes(repair));
        }
      } else {
        ++declines;
        st.bound = false;
      }
    }
    if (!repaired) {
      const int reprove = spans->open("session.reprove", root, i);
      auto fresh = st.scheme->prove(st.graph);
      if (fresh) {
        MutationBatch diff;
        lcp::diff_proofs_into_batch(st.proof, *fresh, &diff);
        if (!diff.empty()) {
          spans->wrap("delta.apply", reprove, i,
                      [&] { st.tracker->apply(diff); });
          ops += static_cast<double>(diff.size());
          if (st.spot != nullptr) st.spot->note_repair(touched_nodes(diff));
        }
      }
      if (st.maintainer != nullptr) {
        st.bound = st.maintainer->bind(st.graph, st.proof);
      }
      spans->close(reprove);
    }
    if (step.audit) st.spot->request_audit();
    const int run_span = spans->open(engine_span_name(st, step.audit), root, i);
    st.context = {run_span, i};
    const RunResult r = st.engine->run(st.graph, st.proof, verifier);
    spans->close(run_span);
    spans->close(root);
    batch_us[traced ? 1 : 0].push_back(
        ns_to_us(static_cast<double>(to_ns(Clock::now() - batch_start))));
    spans->set_enabled(false);

    if (r.all_accept != step.all_accept || r.rejecting != step.rejecting ||
        st.tracker->state_fingerprint() != step.fingerprint) {
      report->fail("replay diverged from the session at batch " +
                   std::to_string(i));
      return;
    }

    if (st.sharded != nullptr) {
      const auto& per_shard = st.sharded->stats().last_dirty_per_shard;
      double sum = 0, max = 0;
      for (std::size_t d : per_shard) {
        sum += static_cast<double>(d);
        max = std::max(max, static_cast<double>(d));
      }
      if (sum > 0) {
        skew_sum += max / (sum / static_cast<double>(per_shard.size()));
        ++skew_batches;
      }
    }
    if (st.spot != nullptr) {
      pool_sum += static_cast<double>(st.spot->stats().pool_size);
      miss_sum += st.spot->stats().miss_bound;
    }

    // Verifier cost on a traced batch's re-verified balls: extract their
    // views (untimed), then time accept() alone.
    if (!traced) continue;
    std::vector<int> centres;
    if (st.spot != nullptr && !step.audit) {
      centres = st.spot->last_sample();
    } else if (st.incremental != nullptr) {
      centres = st.incremental->last_dirty_centers();
    } else {
      centres = dirty_centres_since(*st.tracker, gen_before, radius);
    }
    std::vector<lcp::View> views;
    views.reserve(centres.size());
    for (int v : centres) {
      views.push_back(lcp::extract_view(st.graph, st.proof, v, radius));
    }
    std::size_t accepted = 0;
    const Clock::time_point t0 = Clock::now();
    for (const lcp::View& view : views) accepted += verifier.accept(view) ? 1 : 0;
    const double ns = static_cast<double>(to_ns(Clock::now() - t0));
    if (step.all_accept && accepted != views.size()) {
      report->fail("a re-timed accept() rejected in an accepted state at "
                   "batch " + std::to_string(i));
      return;
    }
    accept_ns += ns;
    if (st.spot != nullptr && !step.audit) accept_sampled_ns += ns;
    balls += static_cast<double>(views.size());
  }

  const double n = static_cast<double>(steps.size());
  const double n_traced = static_cast<double>(batch_us[1].size());
  const std::uint64_t samples = steps.size();
  const auto totals = spans->totals();
  const auto span_ns = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    return self ? it->second.self_ns : it->second.total_ns;
  };
  const auto span_count = [&](const char* name) -> std::uint64_t {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.count;
  };
  // Span totals cover the traced batches only.
  const auto per_batch_us = [&](double ns) {
    return n_traced > 0 ? ns / n_traced / 1000.0 : 0.0;
  };

  report->set("session.build_s", build_s, "s");
  report->set("delta.apply_us", per_batch_us(span_ns("delta.apply", true)),
              "us", span_count("delta.apply"));
  report->set("delta.ops_per_batch", ops / n, "count", samples);
  report->set("dynamic.repair_us",
              per_batch_us(span_ns("dynamic.repair", true)), "us",
              span_count("dynamic.repair"));
  report->set("dynamic.repair_ops_per_batch", repair_ops / n, "count",
              samples);
  report->set("dynamic.declines", declines, "count", samples);
  report->set("session.reprove_us",
              per_batch_us(span_ns("session.reprove", true)), "us",
              span_count("session.reprove"));

  double engine_ns = 0;
  if (st.incremental != nullptr || st.sharded != nullptr) {
    const DeltaCounters d = delta_counters(st) - counters0;
    report->set("incremental.reverified_per_batch", d.reverified / n, "count",
                samples);
    report->set("incremental.patched_per_batch", d.patched / n, "count",
                samples);
    report->set("incremental.reextracted_per_batch", d.reextracted / n,
                "count", samples);
    report->set("incremental.patch_hit_ratio",
                d.patched + d.patch_fallbacks > 0
                    ? d.patched / (d.patched + d.patch_fallbacks)
                    : 0.0,
                "ratio", samples);
    report->set("incremental.full_sweeps", d.full_sweeps, "count", samples);
    report->set("incremental.fallbacks", d.fallbacks, "count", samples);
  }
  if (st.incremental != nullptr) {
    report->set("incremental.run_us",
                per_batch_us(span_ns("incremental.run", false)), "us",
                span_count("incremental.run"));
    engine_ns = span_ns("incremental.run", false);
  }
  if (st.sharded != nullptr) {
    const ShardedEngine::Stats& s = st.sharded->stats();
    const lcp::TransportStats tr = st.sharded->transport().stats();
    report->set("sharded.run_us", per_batch_us(span_ns("sharded.run", false)),
                "us", span_count("sharded.run"));
    report->set("sharded.halo_rebuilds_per_batch",
                static_cast<double>(s.halo_rebuilds - sh0.halo_rebuilds) / n,
                "count", samples);
    report->set("sharded.shards_woken_per_batch",
                static_cast<double>(s.shards_woken - sh0.shards_woken) / n,
                "count", samples);
    report->set("sharded.dirty_skew",
                skew_batches > 0 ? skew_sum / skew_batches : 0.0, "ratio",
                static_cast<std::uint64_t>(skew_batches));
    report->set("transport.messages_per_batch",
                static_cast<double>(tr.messages - tr0.messages) / n, "count",
                samples);
    report->set("transport.records_per_batch",
                static_cast<double>(tr.records - tr0.records) / n, "count",
                samples);
    report->set("transport.bytes_per_batch",
                static_cast<double>(tr.bytes - tr0.bytes) / n, "bytes",
                samples);
    engine_ns = span_ns("sharded.run", false);
  }
  if (st.spot != nullptr) {
    const SpotCheckEngine::Stats& s = st.spot->stats();
    const double run_ns = span_ns("spot_check.run", false);
    const double audit_ns = span_ns("spot_check.audit", false);
    report->set("spot_check.run_us",
                span_count("spot_check.run") > 0
                    ? run_ns / static_cast<double>(span_count("spot_check.run")) /
                          1000.0
                    : 0.0,
                "us", span_count("spot_check.run"));
    report->set("spot_check.audit_us",
                span_count("spot_check.audit") > 0
                    ? audit_ns / static_cast<double>(span_count("spot_check.audit")) /
                          1000.0
                    : 0.0,
                "us",
                span_count("spot_check.audit"));
    report->set("spot_check.sampled_per_batch",
                static_cast<double>(s.balls_sampled - sp0.balls_sampled) / n,
                "count", samples);
    report->set("spot_check.skipped_per_batch",
                static_cast<double>(s.balls_skipped - sp0.balls_skipped) / n,
                "count", samples);
    report->set("spot_check.pool_size", pool_sum / n, "count", samples);
    report->set("spot_check.escalations",
                static_cast<double>(s.escalations - sp0.escalations), "count",
                samples);
    report->set("spot_check.miss_bound", miss_sum / n, "probability", samples);
    report->set("spot_check.overhead_share",
                run_ns > 0 ? 1.0 - accept_sampled_ns / run_ns : 0.0, "ratio",
                span_count("spot_check.run"));
    engine_ns = run_ns + audit_ns;
  }
  report->set("schemes.accept_us_per_ball",
              balls > 0 ? accept_ns / balls / 1000.0 : 0.0, "us",
              static_cast<std::uint64_t>(balls));
  report->set("incremental.accept_share",
              engine_ns > 0 ? accept_ns / engine_ns : 0.0, "ratio", samples);
  const double untraced_p50 = median(batch_us[0]);
  report->set("bench.trace_overhead_pct",
              untraced_p50 > 0
                  ? (median(batch_us[1]) / untraced_p50 - 1.0) * 100.0
                  : 0.0,
              "%", samples);
}

/// Replays the first c.sharded_replay_steps recorded batches on sharded:4,
/// which must reproduce the same verdicts and fingerprints, and adds its
/// sharded.* and transport.* metrics to `report`.
void replay_sharded_prefix(const Config& c, const std::vector<Step>& steps,
                           SpanRecorder* spans, Report* report) {
  Config sharded = c;
  sharded.engine = "sharded:4";
  const std::size_t n =
      std::min(steps.size(), static_cast<std::size_t>(c.sharded_replay_steps));
  const std::vector<Step> prefix(steps.begin(),
                                 steps.begin() + static_cast<std::ptrdiff_t>(n));
  Report own;
  replay(sharded, prefix, spans, &own);
  for (const std::string& e : own.errors) report->fail("sharded:4 " + e);
  for (const auto& [name, m] : own.metrics) {
    if (name.rfind("sharded.", 0) == 0 || name.rfind("transport.", 0) == 0) {
      report->set(name, m.value, m.unit.c_str(), m.samples);
    }
  }
}

}  // namespace

void run_library_workload(const Options& options, Report* report,
                          SpanRecorder* spans) {
  const Config c = config_for(options.workload);
  // A traced run splits its time between the session and the replay.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  LoopResult loop =
      closed_loop(c, options.seed, seconds, options.trace, report);
  if (loop.last != nullptr) check_planted_tamper(*loop.last, options.seed, report);
  loop.last.reset();

  const std::vector<double> apply_us = loop.all_apply_us();
  const std::uint64_t n = apply_us.size();
  std::fprintf(stderr, "%s: %llu batches in %zu epochs\n",
               options.workload.c_str(), static_cast<unsigned long long>(n),
               loop.epochs.size());
  if (options.trace) {
    if (!report->correct) return;
    replay(c, loop.steps, spans, report);
    if (report->correct && c.sharded_replay_steps > 0) {
      replay_sharded_prefix(c, loop.steps, spans, report);
    }
    report->set("bench.apply_p90_us", percentile(apply_us, 90), "us", n);
    report->set("bench.apply_p99_us", percentile(apply_us, 99), "us", n);
    return;
  }
  // Each figure is the median over the run's epochs: every epoch does
  // statistically the same work, so the median damps both the stream's
  // variation and interference from the rest of the host.  A final epoch
  // cut short by the deadline is left out when full ones exist.
  std::vector<double> rate, p50;
  for (const Epoch& e : loop.epochs) {
    if (e.apply_us.size() * 2 < static_cast<std::size_t>(c.epoch_batches) &&
        loop.epochs.front().apply_us.size() * 2 >=
            static_cast<std::size_t>(c.epoch_batches)) {
      continue;
    }
    double busy_us = 0;  // > 0: every epoch applies at least one batch
    for (double us : e.request_us) busy_us += us;
    rate.push_back(static_cast<double>(e.request_us.size()) / busy_us * 1e6);
    p50.push_back(percentile(e.apply_us, 50));
    std::fprintf(stderr, "  epoch: %zu batches, %.1f/s, p50 %.0f us\n",
                 e.apply_us.size(), rate.back(), p50.back());
  }
  if (rate.empty()) {
    report->fail("no epoch applied a batch");
    return;
  }
  report->set("setup_s", median(loop.setup_s), "s", loop.setup_s.size());
  // A closed-loop caller's throughput: batches per second of generate and
  // apply time (reference checks and epoch rebuilds excluded).
  report->set("batches_per_s", median(rate), "1/s", n);
  report->set("apply_p50_us", median(p50), "us", n);
  report->set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
