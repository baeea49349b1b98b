// The differential oracle: one reference sweep checks every engine, tier
// and session path.
//
// Section 2.1 makes the verdict a function of the radius-r balls alone: a
// configuration is accepted iff A(G, P, v) accepts at every node v.  So
// sweep_sequential (a stack-local extractor and the verifier, nothing
// cached) is a complete oracle.  Every engine configuration below replays
// the same seeded inputs, and after every batch it must agree with the
// reference sweep over the same (graph, proof) on all_accept and on the
// ascending rejecting set; where a tracker is bound, its incrementally
// kept state fingerprint must equal a recomputation from the pair.
//
// Three paths are checked, over every registry scheme, two conjunctions
// and a radius-padded scheme:
//   - content path: raw engine.run() with no tracker, over honest,
//     tampered and empty proofs on a small-graph corpus (each case twice:
//     a rebuild, then unchanged-state reuse); plus the exhaustive proof
//     search through each engine;
//   - sessions: VerificationSessions whose maintainers repair the
//     certificates, fed one seeded stream (ChurnStream growth and window
//     expiry, label churn, edge relabels and reweights, proof tampers);
//     the exact lanes must also stay in lockstep with the first, and the
//     sampled spot-check lane's REJECTs and audits must be exact;
//   - lazy re-prove: the same without maintainers, so a session re-proves
//     only after a rejection, also held against an eager reference that
//     re-proves every batch.
// A canary engine that corrupts one verdict at a seeded batch must be
// caught at exactly that batch, which shows the oracle is not vacuous.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <iterator>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "algo/matching.hpp"
#include "bench/churn_stream.hpp"
#include "core/checker.hpp"
#include "core/compose.hpp"
#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/sharded_engine.hpp"
#include "dynamic/maintainer.hpp"
#include "graph/directed.hpp"
#include "graph/generators.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/matching_schemes.hpp"
#include "schemes/tree_certified.hpp"

namespace lcp {
namespace {

constexpr int kStreamBatches = 12;
constexpr std::uint32_t kStreamSeeds[] = {1, 2};

// ------------------------------------------------------------ reporting --

/// Where a verdict came from; every mismatch names all four.
struct Where {
  std::string_view config;
  std::string_view scheme;
  std::string_view stream;
  int batch = 0;
};

/// The first disagreement a check saw; each path stops there.
struct Mismatch {
  int batch = 0;
  std::string message;
};
using Outcome = std::optional<Mismatch>;

Outcome mismatch(const Where& at, const std::string& what) {
  return Mismatch{at.batch, "config " + std::string(at.config) +
                                ", scheme " + std::string(at.scheme) +
                                ", stream " + std::string(at.stream) +
                                ", batch " + std::to_string(at.batch) +
                                ": " + what};
}

std::string show(const std::vector<int>& nodes) {
  std::string out = "{";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(nodes[i]);
  }
  return out + "}";
}

/// The oracle: `got` against the reference verdict `want` over the same
/// pair, and the tracker's kept fingerprint (when one is bound) against a
/// recomputation from its pair.  A sampled tier's ACCEPT may miss a
/// rejecting ball (`exact` false); its REJECTs are exact like every other
/// verdict.
Outcome check(const Where& at, const RunResult& got, const RunResult& want,
              const DeltaTracker* tracker, bool exact = true) {
  const bool sampled_accept =
      !exact && got.all_accept && got.rejecting.empty();
  if (!sampled_accept && got.all_accept != want.all_accept) {
    return mismatch(at, std::string("all_accept ") +
                            (got.all_accept ? "true" : "false") +
                            ", reference " +
                            (want.all_accept ? "true" : "false"));
  }
  if (!sampled_accept && got.rejecting != want.rejecting) {
    return mismatch(at, "rejecting " + show(got.rejecting) +
                            ", reference " + show(want.rejecting));
  }
  if (tracker != nullptr &&
      tracker->state_fingerprint() !=
          DeltaTracker::state_fingerprint_of(tracker->graph(),
                                             tracker->proof())) {
    return mismatch(at, "tracker state fingerprint drifted from its pair");
  }
  return std::nullopt;
}

// -------------------------------------------------------------- engines --

/// Worst-case partition: node v to shard v % k, so on paths and cycles
/// every edge crosses shards and every node carries a halo.
class StripedPartitioner final : public Partitioner {
 public:
  std::string name() const override { return "striped"; }
  void bind(const Graph& g, int shards) override {
    (void)g;
    shards_ = shards;
  }
  int owner(const Graph& g, int v) const override {
    (void)g;
    return v % shards_;
  }

 private:
  int shards_ = 1;
};

/// One engine configuration.  The content path runs make()'s engine
/// directly; sessions spell the backend as `spec` with `incremental` as
/// their engine options (configurations a session cannot spell leave
/// `spec` empty and run on the content path only).
struct EngineConfig {
  std::string name;
  std::function<std::unique_ptr<ExecutionEngine>()> make;
  std::string spec;
  IncrementalEngineOptions incremental{.verify_state = false};
  /// Flip view patching and pool sharding at random before every batch.
  bool toggle = false;
  /// A spot-check tier that samples: only its REJECTs and audited
  /// verdicts must be exact, so its session state may leave the others'.
  bool sampled = false;
};

std::vector<EngineConfig> engine_configs() {
  const auto by_spec = [](const std::string& spec) {
    return [spec] { return make_engine(spec); };
  };
  std::vector<EngineConfig> configs;
  configs.push_back({"direct", by_spec("direct"), "direct"});
  configs.push_back({"direct/uncached",
                     [] {
                       return std::make_unique<DirectEngine>(
                           DirectEngineOptions{.cache_views = false});
                     },
                     ""});
  configs.push_back(
      {"message-passing", by_spec("message-passing"), "message-passing"});
  configs.push_back({"parallel",
                     [] { return std::make_unique<ParallelEngine>(4); },
                     "parallel"});
  for (const bool patch : {true, false}) {
    for (const int threads : {0, 3}) {
      // shard_min_centers = 0 sends even tiny dirty sets to the pool, so
      // the sharded lanes use it at oracle sizes.
      const IncrementalEngineOptions options{.verify_state = false,
                                             .patch_views = patch,
                                             .shard_threads = threads,
                                             .shard_min_centers = 0};
      configs.push_back(
          {std::string("incremental/") + (patch ? "patch" : "reextract") +
               (threads > 0 ? "/shard" : "/serial"),
           [options] { return std::make_unique<IncrementalEngine>(options); },
           "incremental", options});
    }
  }
  const IncrementalEngineOptions toggled{.verify_state = false,
                                         .shard_min_centers = 0};
  configs.push_back(
      {"incremental/toggle",
       [toggled] { return std::make_unique<IncrementalEngine>(toggled); },
       "incremental", toggled, /*toggle=*/true});
  for (const char* spec : {"sharded:2:range", "sharded:2:hash",
                           "sharded:7:range", "sharded:7:hash"}) {
    configs.push_back({spec, by_spec(spec), spec});
  }
  configs.push_back({"sharded:4:striped",
                     [] {
                       ShardedEngineOptions options;
                       options.shards = 4;
                       options.partitioner =
                           std::make_shared<StripedPartitioner>();
                       return std::make_unique<ShardedEngine>(options);
                     },
                     ""});
  for (const char* spec : {"spotcheck:0", "spotcheck:1.0"}) {
    configs.push_back({spec, by_spec(spec), spec});
  }
  configs.push_back({"spotcheck:0.3", by_spec("spotcheck:0.3"),
                     "spotcheck:0.3", {.verify_state = false},
                     /*toggle=*/false, /*sampled=*/true});
  return configs;
}

void maybe_toggle(bool toggle, IncrementalEngine* engine, std::mt19937& rng) {
  if (!toggle || engine == nullptr) return;
  engine->set_patch_views(rng() % 2 == 0);
  engine->set_shard_threads(rng() % 2 == 0 ? 3 : 0);
}

// -------------------------------------------------------------- schemes --

struct OracleScheme {
  std::string name;
  std::function<std::unique_ptr<Scheme>()> build;
};

std::vector<OracleScheme> oracle_schemes() {
  std::vector<std::string> exprs = builtin_registry().names();
  exprs.push_back("bipartite & even-n");
  exprs.push_back("leader-election & maximal-matching");
  std::vector<OracleScheme> schemes;
  for (const std::string& expr : exprs) {
    schemes.push_back(
        {expr, [expr] { return builtin_registry().build(expr); }});
  }
  // Halos and dirty balls three hops deep.
  schemes.push_back({"bipartite@r3", [] {
                       return radius_pad(std::shared_ptr<const Scheme>(
                                             builtin_registry().build(
                                                 "bipartite")),
                                         3);
                     }});
  return schemes;
}

/// Inputs the scheme reads: a leader flag for leader election, s and t
/// for the s-t schemes, arc directions (both orientations of the stored
/// endpoint order) for the directed one, and a greedy maximal matching on
/// the edge labels for the matching schemes.
void prepare(const std::string& scheme, Graph* g) {
  if (g->n() == 0) return;
  if (scheme.find("leader-election") != std::string::npos) {
    g->set_label(g->n() / 2, schemes::kLeaderFlag);
  }
  if (scheme.rfind("st-", 0) == 0) {
    g->set_label(0, schemes::kSourceLabel);
    g->set_label(g->n() - 1, schemes::kTargetLabel);
  }
  if (scheme.find("directed") != std::string::npos) {
    for (int e = 0; e < g->m(); ++e) {
      g->set_edge_label(e, e % 3 == 0 ? directed::kBackward
                                      : directed::kForward);
    }
  }
  if (scheme.find("matching") != std::string::npos) {
    const std::vector<bool> matched = greedy_maximal_matching(*g);
    for (int e = 0; e < g->m(); ++e) {
      if (matched[static_cast<std::size_t>(e)]) {
        g->set_edge_label(e, schemes::MaximalMatchingScheme::kMatchedBit);
      }
    }
  }
}

std::vector<std::pair<std::string, Graph>> corpus_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("cycle9", gen::cycle(9));
  graphs.emplace_back("grid3x4", gen::grid(3, 4));
  graphs.emplace_back("petersen", gen::petersen());
  graphs.emplace_back("tree12", gen::random_tree(12, 3));
  graphs.emplace_back("conn14", gen::random_connected(14, 0.25, 1));
  // Possibly disconnected: engines must agree off the happy path too.
  graphs.emplace_back("er10", gen::random_graph(10, 0.3, 1));
  return graphs;
}

/// Honest, tampered and empty proofs for one scheme on one graph.
std::vector<std::pair<std::string, Proof>> proof_cases(const Scheme& scheme,
                                                       const Graph& g) {
  std::vector<std::pair<std::string, Proof>> out;
  if (const auto honest = scheme.prove(g); honest.has_value()) {
    out.emplace_back("honest", *honest);
    int i = 0;
    for (const Proof& tampered : tampered_variants(*honest, 3, 11)) {
      out.emplace_back("tampered" + std::to_string(i++), tampered);
    }
  }
  out.emplace_back("empty", Proof::empty(g.n()));
  return out;
}

Graph start_graph(const std::string& scheme, std::uint32_t seed) {
  Graph g = seed % 2 == 0 ? gen::grid(3, 4)
                          : gen::random_connected(10, 0.3, seed);
  prepare(scheme, &g);
  return g;
}

// --------------------------------------------------------------- stream --

/// `bits` with bit 0 flipped (a lone 1 when empty).
BitString flipped(const BitString& bits) {
  if (bits.empty()) return BitString::from_string("1");
  BitString out;
  for (int i = 0; i < bits.size(); ++i) {
    out.append_bit(i == 0 ? !bits.bit(i) : bits.bit(i));
  }
  return out;
}

bool touches_edge(const MutationBatch& batch, int u, int v) {
  for (const MutationBatch::Op& op : batch.ops()) {
    if ((op.kind == MutationBatch::Kind::kAddEdge ||
         op.kind == MutationBatch::Kind::kRemoveEdge) &&
        ((op.u == u && op.v == v) || (op.u == v && op.v == u))) {
      return true;
    }
  }
  return false;
}

/// The shared seeded stream: ChurnStream's preferential growth (add_node
/// plus attachment edges) and sliding-window edge churn, then label churn
/// (mostly swaps, which keep one leader one leader), an occasional edge
/// reweight or relabel (it toggles the matched bit and the forward arc),
/// and proof tampers.  Batches are drawn against the current pair, so
/// lanes that apply them in lockstep all see legal ops.
class OracleStream {
 public:
  explicit OracleStream(std::uint32_t seed)
      : seed_(seed),
        churn_({.grow_probability = 0.25,
                .attach_edges = 2,
                .churn_edges = 2,
                .window = 5,
                .seed = seed}) {}

  std::string name() const { return "churn-" + std::to_string(seed_); }

  /// Batch `it`; call with consecutive `it` from 0.
  MutationBatch next(int it, const Graph& g, const Proof& p) {
    if (it == 0) rng_.seed(seed_);
    MutationBatch batch;
    churn_.next(it, g, &batch);
    if (g.n() == 0) return batch;
    const auto node = [&] {
      return static_cast<int>(rng_() % static_cast<unsigned>(g.n()));
    };
    switch (rng_() % 4) {
      case 0: {
        const int u = node();
        const int v = node();
        batch.set_node_label(u, g.label(v));
        batch.set_node_label(v, g.label(u));
        break;
      }
      case 1:
        batch.set_node_label(node(), rng_() % 4);
        break;
      default:
        break;
    }
    if (rng_() % 3 == 0) {
      const int v = node();
      batch.set_proof_label(v,
                            flipped(p.labels[static_cast<std::size_t>(v)]));
    }
    if (rng_() % 4 == 0 && g.m() > 0) {
      const int e = static_cast<int>(rng_() % static_cast<unsigned>(g.m()));
      const int u = g.edge_u(e);
      const int v = g.edge_v(e);
      if (touches_edge(batch, u, v)) {
        // The churn already adds or removes it in this batch.
      } else if (rng_() % 3 == 0) {
        batch.set_edge_weight(u, v, g.edge_weight(e) + 1);
      } else {
        batch.set_edge_label(u, v, g.edge_label(e) ^ 1);
      }
    }
    return batch;
  }

 private:
  std::uint32_t seed_;
  bench::ChurnStream churn_;
  std::mt19937 rng_;
};

// --------------------------------------------------------- content path --

/// One raw engine on the content path.  No tracker is ever attached, so
/// all lanes can read the same pair.
struct ContentLane {
  std::string_view name;
  ExecutionEngine* engine;
  bool toggle;
};

/// Every lane's engine, reused across the whole corpus, runs each case
/// twice (a rebuild, then unchanged-state reuse) against one reference
/// sweep per case.
Outcome content_corpus(const std::vector<ContentLane>& lanes,
                       const OracleScheme& entry) {
  const std::unique_ptr<Scheme> scheme = entry.build();
  const LocalVerifier& a = scheme->verifier();
  std::mt19937 toggle_rng(7);
  int batch = 0;
  for (auto& [graph_label, graph] : corpus_graphs()) {
    Graph g = graph;
    prepare(entry.name, &g);
    for (const auto& [proof_label, p] : proof_cases(*scheme, g)) {
      const std::string stream = "corpus:" + graph_label + "/" + proof_label;
      const RunResult want = sweep_sequential(g, p, a);
      for (const ContentLane& lane : lanes) {
        maybe_toggle(lane.toggle,
                     dynamic_cast<IncrementalEngine*>(lane.engine),
                     toggle_rng);
        for (int rep = 0; rep < 2; ++rep) {
          const Where at{lane.name, entry.name, stream, batch + rep};
          if (auto m = check(at, lane.engine->run(g, p, a), want, nullptr)) {
            return m;
          }
        }
      }
      batch += 2;
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------------- sessions --

struct SessionLane {
  SessionLane(const EngineConfig& c, VerificationSession::Builder& builder)
      : config(&c), session(builder.build()) {}
  const EngineConfig* config;
  VerificationSession session;
};

/// What the lanes of one configuration did, summed over streams, so the
/// tests can require that every branch and mechanism was exercised.
struct Tally {
  int accepts = 0;
  int rejects = 0;
  int healed = 0;    // rejected held proofs that a re-prove replaced
  int failed = 0;    // re-proves of no-instances
  int repaired = 0;  // batches a maintainer repaired
  std::uint64_t skipped = 0;     // dirty balls a sampled tier left alone
  std::uint64_t delta_runs = 0;  // incremental or sharded delta-path runs
  std::uint64_t patched = 0;     // balls patched in place
  std::uint64_t pooled = 0;      // re-verification rounds on the pool

  Tally& operator+=(const Tally& o) {
    accepts += o.accepts;
    rejects += o.rejects;
    healed += o.healed;
    failed += o.failed;
    repaired += o.repaired;
    skipped += o.skipped;
    delta_runs += o.delta_runs;
    patched += o.patched;
    pooled += o.pooled;
    return *this;
  }
};

/// Replays the shared stream through one session per configuration that
/// a session can spell, checking every lane after every batch against the
/// reference sweep over its pair, which must be the first lane's pair.
/// Without maintainers (`maintain` false) the sessions re-prove lazily, and
/// an eager reference that re-proves every batch must agree with each
/// lane: on all_accept always, on the state whenever the lane re-proved,
/// and on the rejecting set whenever the two hold the same state.
Outcome drive_sessions(const std::vector<EngineConfig>& configs,
                       const OracleScheme& entry, std::uint32_t seed,
                       bool maintain, std::vector<Tally>* tally) {
  const Graph start = start_graph(entry.name, seed);
  std::vector<std::unique_ptr<SessionLane>> lanes;
  std::vector<Tally*> lane_tally;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].spec.empty()) continue;
    lanes.push_back(std::make_unique<SessionLane>(
        configs[i], VerificationSession::on(start)
                        .scheme(entry.build())
                        .engine(configs[i].spec)
                        .engine_options(configs[i].incremental)
                        .maintain(maintain)));
    lane_tally.push_back(&(*tally)[i]);
  }

  const std::unique_ptr<Scheme> scheme = entry.build();
  const LocalVerifier& a = scheme->verifier();
  Graph eager_graph = start;
  Proof eager_proof =
      scheme->prove(eager_graph).value_or(Proof::empty(eager_graph.n()));
  DeltaTracker eager(eager_graph, eager_proof, a.radius());

  OracleStream stream(seed);
  const std::string stream_name = stream.name();
  std::mt19937 toggle_rng(seed);
  for (int b = 0; b < kStreamBatches; ++b) {
    const VerificationSession& lead = lanes[0]->session;
    const MutationBatch batch = stream.next(b, lead.graph(), lead.proof());
    RunResult eager_want;
    if (!maintain) {
      eager.apply(batch);
      if (auto fresh = scheme->prove(eager_graph)) {
        MutationBatch diff;
        diff_proofs_into_batch(eager_proof, *fresh, &diff);
        if (!diff.empty()) eager.apply(diff);
      }
      eager_want = sweep_sequential(eager_graph, eager_proof, a);
    }
    // The exact lanes hold one state: each one's kept fingerprint must
    // equal the first lane's and (check) a recomputation from its own
    // pair, so the first lane's reference sweep is every exact lane's.
    std::uint64_t lead_state = 0;
    RunResult want;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      VerificationSession& session = lanes[k]->session;
      const EngineConfig& config = *lanes[k]->config;
      const Where at{config.name, entry.name, stream_name, b};
      maybe_toggle(config.toggle, session.incremental_engine(), toggle_rng);
      // An audit makes a sampled lane's verdict exact.
      const bool audited = config.sampled && b % 4 == 3;
      if (audited) session.spot_check_engine()->request_audit();
      const SessionStats before = session.stats();
      const RunResult got = session.apply(batch);
      const std::uint64_t state = session.tracker().state_fingerprint();
      if (config.sampled) {
        // After a sampled ACCEPT its held proof may differ from the
        // others', so it answers to a sweep of its own pair.
        if (auto m = check(at, got,
                           sweep_sequential(session.graph(), session.proof(),
                                            session.scheme().verifier()),
                           &session.tracker(), audited)) {
          return m;
        }
      } else {
        if (k == 0) {
          lead_state = state;
          want = sweep_sequential(session.graph(), session.proof(),
                                  session.scheme().verifier());
        } else if (state != lead_state) {
          return mismatch(at, "state diverged from the " +
                                  lanes[0]->config->name + " lane");
        }
        if (auto m = check(at, got, want, &session.tracker())) return m;
      }

      const SessionStats& after = session.stats();
      const bool reproved = after.reproves > before.reproves;
      const bool failed = after.failed_proves > before.failed_proves;
      Tally& t = *lane_tally[k];
      t.accepts += got.all_accept ? 1 : 0;
      t.rejects += got.all_accept ? 0 : 1;
      t.healed += reproved && !failed ? 1 : 0;
      t.failed += failed ? 1 : 0;
      t.repaired += after.repaired > before.repaired ? 1 : 0;
      t.skipped += after.spot_skipped - before.spot_skipped;
      if (maintain || config.sampled) continue;
      if (got.all_accept != eager_want.all_accept) {
        return mismatch(at, "all_accept differs from the eager re-prove "
                            "reference");
      }
      if (reproved && !failed && state != eager.state_fingerprint()) {
        return mismatch(at, "re-proved state differs from the eager "
                            "re-prove reference");
      }
      if (state == eager.state_fingerprint() &&
          got.rejecting != eager_want.rejecting) {
        return mismatch(at, "rejecting " + show(got.rejecting) +
                                ", eager re-prove reference " +
                                show(eager_want.rejecting));
      }
    }
  }
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    VerificationSession& session = lanes[k]->session;
    Tally& t = *lane_tally[k];
    if (const IncrementalEngine* engine = session.incremental_engine()) {
      t.delta_runs += engine->stats().incremental_runs;
      t.patched += engine->stats().views_patched;
      t.pooled += engine->stats().sharded_rounds;
    } else if (const auto* engine =
                   dynamic_cast<const ShardedEngine*>(&session.engine())) {
      t.delta_runs += engine->stats().incremental_runs;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- tests --

/// Runs task(i) for every i in [0, n) on a few threads (schemes and
/// streams are independent) and returns the outcomes in index order.  A
/// task that throws reports the exception as its mismatch.
std::vector<Outcome> run_tasks(
    std::size_t n, const std::function<Outcome(std::size_t)>& task) {
  constexpr int kWorkers = 3;
  std::vector<Outcome> outcomes(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          outcomes[i] = task(i);
        } catch (const std::exception& e) {
          outcomes[i] = Mismatch{-1, std::string("threw: ") + e.what()};
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return outcomes;
}

void expect_agreement(const std::vector<Outcome>& outcomes) {
  for (const Outcome& outcome : outcomes) {
    EXPECT_FALSE(outcome.has_value()) << outcome->message;
  }
}

TEST(EngineOracle, ContentPath) {
  const std::vector<EngineConfig> configs = engine_configs();
  const std::vector<OracleScheme> schemes = oracle_schemes();
  expect_agreement(run_tasks(schemes.size(), [&](std::size_t i) -> Outcome {
    // Fresh engines per scheme, each reused across the whole corpus.
    std::vector<std::unique_ptr<ExecutionEngine>> engines;
    std::vector<ContentLane> lanes;
    for (const EngineConfig& config : configs) {
      engines.push_back(config.make());
      lanes.push_back({config.name, engines.back().get(), config.toggle});
    }
    return content_corpus(lanes, schemes[i]);
  }));
}

TEST(EngineOracle, ExhaustiveSearch) {
  // exists_accepted_proof advances its odometer through the delta API, so
  // delta-aware engines re-verify only the balls around each change; the
  // nondeterministic acceptance predicate must not depend on the engine.
  const LambdaVerifier two_colouring(1, [](const View& v) {
    const BitString& mine = v.proof_of(v.center);
    if (mine.size() != 1) return false;
    for (const HalfEdge& h : v.ball.neighbors(v.center)) {
      const BitString& other = v.proof_of(h.to);
      if (other.size() != 1 || other.bit(0) == mine.bit(0)) return false;
    }
    return true;
  });
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"path4", gen::path(4)},
      {"cycle4", gen::cycle(4)},
      {"cycle5", gen::cycle(5)},
      {"grid2x3", gen::grid(2, 3)}};
  // Uncached, every run of this engine is the reference sweep.
  DirectEngine reference({.cache_views = false});
  std::vector<bool> want;
  for (const auto& [label, g] : graphs) {
    want.push_back(exists_accepted_proof(g, two_colouring, 1, reference));
  }
  EXPECT_EQ(want, (std::vector<bool>{true, true, false, true}));
  for (const EngineConfig& config : engine_configs()) {
    // A sampled ACCEPT is not a proof that every node accepts.
    if (config.sampled) continue;
    const std::unique_ptr<ExecutionEngine> engine = config.make();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      EXPECT_EQ(want[i], exists_accepted_proof(graphs[i].second,
                                               two_colouring, 1, *engine))
          << config.name << " on " << graphs[i].first;
    }
  }
}

/// Drives sessions over every (scheme, seed) stream, requires every lane
/// to have taken both verdicts and the mechanism its configuration names,
/// and returns each configuration's tally summed across the streams.
std::vector<Tally> drive_all_sessions(const std::vector<EngineConfig>& configs,
                                      const std::vector<OracleScheme>& schemes,
                                      bool maintain) {
  constexpr std::size_t kSeeds = std::size(kStreamSeeds);
  std::vector<std::vector<Tally>> tallies(
      schemes.size() * kSeeds, std::vector<Tally>(configs.size()));
  expect_agreement(
      run_tasks(tallies.size(), [&](std::size_t task) -> Outcome {
        return drive_sessions(configs, schemes[task / kSeeds],
                              kStreamSeeds[task % kSeeds], maintain,
                              &tallies[task]);
      }));
  std::vector<Tally> sum(configs.size());
  for (const std::vector<Tally>& tally : tallies) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += tally[i];
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const EngineConfig& config = configs[i];
    if (config.spec.empty()) continue;
    EXPECT_GT(sum[i].accepts, 0) << config.name;
    EXPECT_GT(sum[i].rejects, 0) << config.name;
    if (config.sampled) {
      EXPECT_GT(sum[i].skipped, 0u) << config.name;
    }
    if (config.spec == "incremental" ||
        config.spec.rfind("sharded", 0) == 0) {
      EXPECT_GT(sum[i].delta_runs, 0u) << config.name;
    }
    if (config.spec == "incremental" && config.incremental.patch_views) {
      EXPECT_GT(sum[i].patched, 0u) << config.name;
    }
    if (config.incremental.shard_threads > 0 || config.toggle) {
      EXPECT_GT(sum[i].pooled, 0u) << config.name;
    }
  }
  return sum;
}

TEST(EngineOracle, SessionsWithMaintainers) {
  // Every scheme the registry can maintain, conjunctions included (the
  // leader-election & maximal-matching one runs a ComposedMaintainer).
  const std::vector<EngineConfig> configs = engine_configs();
  std::vector<OracleScheme> maintained;
  for (const OracleScheme& entry : oracle_schemes()) {
    if (make_maintainer_for(*entry.build(), builtin_registry()) != nullptr) {
      maintained.push_back(entry);
    }
  }
  EXPECT_GE(maintained.size(), 6u);
  const std::vector<Tally> tally =
      drive_all_sessions(configs, maintained, /*maintain=*/true);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!configs[i].spec.empty()) {
      EXPECT_GT(tally[i].repaired, 0) << configs[i].name;
    }
  }
}

TEST(EngineOracle, LazyReproveMatchesEagerReference) {
  const std::vector<EngineConfig> configs = engine_configs();
  const std::vector<Tally> tally =
      drive_all_sessions(configs, oracle_schemes(), /*maintain=*/false);
  // Held proofs that still verify are covered by the accepts; these are
  // the re-prove branches: rejections a re-prove heals, and failed proves.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].spec.empty()) continue;
    EXPECT_GT(tally[i].healed, 0) << configs[i].name;
    EXPECT_GT(tally[i].failed, 0) << configs[i].name;
  }
}

// --------------------------------------------------------------- canary --

/// A broken engine: it wraps a correct one and corrupts exactly one run.
/// From run `at` on it either flips all_accept (kFlip) or, at the first
/// run with two or more rejecting centres, drops the last one (kDrop),
/// which leaves all_accept alone so only the rejecting-set comparison can
/// see it.
class CanaryEngine final : public ExecutionEngine {
 public:
  enum class Mode { kFlip, kDrop };

  CanaryEngine(std::unique_ptr<ExecutionEngine> inner, Mode mode, int at)
      : inner_(std::move(inner)), mode_(mode), at_(at) {}

  std::string name() const override { return "canary"; }
  RunResult run(const Graph& g, const Proof& p,
                const LocalVerifier& a) override {
    RunResult result = inner_->run(g, p, a);
    const int run = runs_++;
    if (corrupted_ >= 0 || run < at_) return result;
    if (mode_ == Mode::kFlip) {
      result.all_accept = !result.all_accept;
      corrupted_ = run;
    } else if (result.rejecting.size() >= 2) {
      result.rejecting.pop_back();
      corrupted_ = run;
    }
    return result;
  }

  /// The run it corrupted, or -1 while it has not struck.
  int corrupted_run() const { return corrupted_; }

 private:
  std::unique_ptr<ExecutionEngine> inner_;
  Mode mode_;
  int at_;
  int runs_ = 0;
  int corrupted_ = -1;
};

TEST(EngineOracle, CanaryIsCaughtAtItsBatch) {
  const std::vector<EngineConfig> configs = engine_configs();
  const OracleScheme bipartite{"bipartite", [] {
                                 return builtin_registry().build("bipartite");
                               }};
  std::mt19937 rng(20261019);
  for (const auto mode :
       {CanaryEngine::Mode::kFlip, CanaryEngine::Mode::kDrop}) {
    const EngineConfig& victim = configs[rng() % configs.size()];
    const int at = static_cast<int>(rng() % 24);
    CanaryEngine canary(victim.make(), mode, at);
    const std::string name = "canary(" + victim.name + ")";
    // With one lane, corpus batch i is the engine's run i.
    const Outcome caught = content_corpus({{name, &canary, false}}, bipartite);
    ASSERT_GE(canary.corrupted_run(), at) << name << " never struck";
    ASSERT_TRUE(caught.has_value()) << name << " went unnoticed";
    EXPECT_EQ(caught->batch, canary.corrupted_run()) << caught->message;
    for (const std::string& part :
         {name, std::string("scheme bipartite"), std::string("stream corpus:"),
          "batch " + std::to_string(canary.corrupted_run())}) {
      EXPECT_NE(caught->message.find(part), std::string::npos)
          << caught->message << " lacks " << part;
    }
  }
}

}  // namespace
}  // namespace lcp
