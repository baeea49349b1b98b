#include "core/session.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "dynamic/maintainer.hpp"

namespace lcp {

// Debug enforcement of the one-apply-at-a-time contract (see apply()'s
// declaration): overlapping apply()/verify() calls trip the assert
// instead of racing on the tracker and engine caches.
class VerificationSession::ApplyScope {
 public:
  explicit ApplyScope(VerificationSession& s) : s_(s) {
    // The exchange runs in all builds (side effects never live inside
    // assert); only the check compiles away under NDEBUG.
    const bool was_applying =
        s_.in_apply_.exchange(true, std::memory_order_acq_rel);
    assert(!was_applying &&
           "VerificationSession: concurrent apply()/verify() — sessions "
           "are single-caller; serialise externally");
    (void)was_applying;
  }
  ~ApplyScope() { s_.in_apply_.store(false, std::memory_order_release); }
  ApplyScope(const ApplyScope&) = delete;
  ApplyScope& operator=(const ApplyScope&) = delete;

 private:
  VerificationSession& s_;
};

namespace {

/// One instrumented phase: a trace span plus a latency histogram sample,
/// both skipped (no clock read, no lock) when telemetry is off.
class PhaseScope {
 public:
  PhaseScope(obs::Telemetry* telemetry, const char* span_name,
             obs::LatencyHistogram* hist)
      : span_(obs::maybe_span(telemetry, span_name)), hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() { close(); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  void close() {
    if (hist_ != nullptr) {
      hist_->record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
      hist_ = nullptr;
    }
    span_.close();
  }

 private:
  obs::TraceRecorder::Span span_;
  obs::LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// "spotcheck:BUDGET", plus the inner backend when `spelled` names one
/// ("spotcheck:0.25:sharded:2" at budget 1 -> "spotcheck:1:sharded:2").
std::string spotcheck_name(double budget, std::string_view spelled) {
  char digits[32];
  const auto end = std::to_chars(digits, digits + sizeof digits, budget).ptr;
  std::string name = "spotcheck:" + std::string(digits, end);
  constexpr std::string_view prefix = "spotcheck:";
  const std::size_t inner = spelled.find(':', prefix.size());
  if (spelled.size() > prefix.size() && inner != std::string_view::npos) {
    name += spelled.substr(inner);
  }
  return name;
}

}  // namespace

VerificationSession::Builder::Builder(Graph graph)
    : graph_(std::move(graph)) {}

VerificationSession::Builder::~Builder() = default;
VerificationSession::Builder::Builder(Builder&&) noexcept = default;

VerificationSession::Builder& VerificationSession::Builder::scheme(
    std::string_view expr) {
  scheme_expr_ = std::string(expr);
  external_scheme_ = nullptr;
  owned_scheme_.reset();
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::scheme(
    const Scheme& external) {
  external_scheme_ = &external;
  owned_scheme_.reset();
  scheme_expr_.clear();
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::scheme(
    std::unique_ptr<Scheme> owned) {
  owned_scheme_ = std::move(owned);
  external_scheme_ = nullptr;
  scheme_expr_.clear();
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::engine(
    EngineKind kind) {
  kind_ = kind;
  switch (kind) {
    case EngineKind::kDirect: engine_spec_ = "direct"; break;
    case EngineKind::kMessagePassing: engine_spec_ = "message-passing"; break;
    case EngineKind::kParallel: engine_spec_ = "parallel"; break;
    case EngineKind::kIncremental: engine_spec_ = "incremental"; break;
    case EngineKind::kSharded: engine_spec_ = "sharded"; break;
    case EngineKind::kSpotCheck: engine_spec_ = "spotcheck"; break;
  }
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::engine(
    std::string_view backend) {
  // Reports name the backend as spelled ("sharded:4"), not just its kind.
  const auto chosen = [&](EngineKind kind) -> Builder& {
    engine(kind);
    engine_spec_ = std::string(backend);
    return *this;
  };
  if (backend == "direct") return chosen(EngineKind::kDirect);
  if (backend == "message-passing") {
    return chosen(EngineKind::kMessagePassing);
  }
  if (backend == "parallel") return chosen(EngineKind::kParallel);
  if (backend == "incremental") return chosen(EngineKind::kIncremental);
  if (backend == "sharded" || backend.rfind("sharded:", 0) == 0) {
    sharded_options_ = parse_sharded_spec(backend);
    return chosen(EngineKind::kSharded);
  }
  if (backend == "spotcheck" || backend.rfind("spotcheck:", 0) == 0) {
    // Validate eagerly so a typo throws here, not at build(); the spec
    // string is kept verbatim because the inner engine's construction
    // depends on builder state (engine_options) not yet final.
    parse_spotcheck_spec(backend);
    spotcheck_spec_ = std::string(backend);
    return chosen(EngineKind::kSpotCheck);
  }
  throw std::invalid_argument("VerificationSession: unknown backend '" +
                              std::string(backend) + "'");
}

VerificationSession::Builder& VerificationSession::Builder::maintain(
    bool on) {
  maintain_ = on;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::maintainer(
    std::unique_ptr<dynamic::ProofMaintainer> m) {
  maintainer_ = std::move(m);
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::engine_options(
    IncrementalEngineOptions options) {
  incremental_options_ = std::move(options);
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::sharded_options(
    ShardedEngineOptions options) {
  sharded_options_ = std::move(options);
  return *this;
}

VerificationSession::Builder&
VerificationSession::Builder::spotcheck_options(SpotCheckOptions options) {
  spotcheck_options_ = options;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::registry(
    const SchemeRegistry& registry) {
  registry_ = &registry;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::telemetry(
    std::shared_ptr<obs::Telemetry> sink) {
  telemetry_ = std::move(sink);
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::telemetry(
    bool on) {
  telemetry_ = on ? std::make_shared<obs::Telemetry>() : nullptr;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::journal(
    std::shared_ptr<obs::Journal> journal) {
  journal_ = std::move(journal);
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::journal(
    bool on) {
  journal_ = on ? std::make_shared<obs::Journal>() : nullptr;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::forensics(
    bool on) {
  forensics_ = on;
  return *this;
}

VerificationSession::Builder& VerificationSession::Builder::forensics(
    obs::ForensicsOptions options) {
  forensics_ = true;
  forensics_options_ = options;
  return *this;
}

VerificationSession VerificationSession::Builder::build() {
  return VerificationSession(std::move(*this));
}

VerificationSession::Builder VerificationSession::on(Graph graph) {
  return Builder(std::move(graph));
}

VerificationSession::VerificationSession(Builder&& b)
    : telemetry_(std::move(b.telemetry_)),
      graph_(std::move(b.graph_)),
      owned_scheme_(std::move(b.owned_scheme_)) {
  if (!b.scheme_expr_.empty()) {
    // Expressions resolve here, against the final registry() choice, so
    // the fluent setters are order-insensitive.
    const SchemeRegistry& reg =
        b.registry_ != nullptr ? *b.registry_ : builtin_registry();
    owned_scheme_ = reg.build(b.scheme_expr_);
  }
  scheme_ = owned_scheme_ != nullptr ? owned_scheme_.get()
                                     : b.external_scheme_;
  if (scheme_ == nullptr) {
    throw std::invalid_argument(
        "VerificationSession: no scheme configured");
  }

  switch (b.kind_) {
    case EngineKind::kDirect:
      engine_ = std::make_unique<DirectEngine>();
      break;
    case EngineKind::kMessagePassing:
      engine_ = make_engine("message-passing");
      break;
    case EngineKind::kParallel:
      engine_ = std::make_unique<ParallelEngine>();
      break;
    case EngineKind::kIncremental: {
      auto incremental =
          std::make_unique<IncrementalEngine>(b.incremental_options_);
      incremental_ = incremental.get();
      engine_ = std::move(incremental);
      break;
    }
    case EngineKind::kSharded: {
      ShardedEngineOptions options = std::move(b.sharded_options_);
      // The session routes every mutation through its tracker, so the
      // per-run state-fingerprint recompute buys nothing.
      options.verify_state = false;
      engine_ = std::make_unique<ShardedEngine>(std::move(options));
      break;
    }
    case EngineKind::kSpotCheck: {
      SpotCheckSpec spec = parse_spotcheck_spec(b.spotcheck_spec_);
      if (b.spotcheck_options_.has_value()) {
        if (b.spotcheck_options_->budget != spec.options.budget) {
          // Reports name the budget the tier samples at, not the one
          // spelled in the spec.
          b.engine_spec_ = spotcheck_name(b.spotcheck_options_->budget,
                                          b.spotcheck_spec_);
        }
        spec.options = *b.spotcheck_options_;
      }
      // The inner engine gets the same treatment the bare kinds do, so
      // wrapping doesn't silently drop engine_options().
      std::unique_ptr<ExecutionEngine> inner;
      if (spec.inner == "incremental") {
        auto incremental =
            std::make_unique<IncrementalEngine>(b.incremental_options_);
        incremental_ = incremental.get();
        inner = std::move(incremental);
      } else if (spec.inner == "sharded" ||
                 spec.inner.rfind("sharded:", 0) == 0) {
        ShardedEngineOptions options = parse_sharded_spec(spec.inner);
        options.verify_state = false;
        inner = std::make_unique<ShardedEngine>(std::move(options));
      } else {
        inner = make_engine(spec.inner);
      }
      auto spot =
          std::make_unique<SpotCheckEngine>(std::move(inner), spec.options);
      spot_ = spot.get();
      engine_ = std::move(spot);
      break;
    }
  }

  engine_name_ = std::move(b.engine_spec_);

  auto initial = scheme_->prove(graph_);
  proof_ = initial.has_value() ? std::move(*initial)
                               : Proof::empty(graph_.n());
  tracker_ = std::make_unique<DeltaTracker>(graph_, proof_,
                                            scheme_->verifier().radius());
  engine_->attach_tracker(tracker_.get());

  maintainer_ = std::move(b.maintainer_);
  if (maintainer_ == nullptr && b.maintain_) {
    const SchemeRegistry& reg =
        b.registry_ != nullptr ? *b.registry_ : builtin_registry();
    maintainer_ = make_maintainer_for(*scheme_, reg);
  }
  bound_ = maintainer_ != nullptr && maintainer_->bind(graph_, proof_);

  journal_ = std::move(b.journal_);
  forensics_ = b.forensics_;
  forensics_options_ = b.forensics_options_;
  if (journal_ != nullptr) {
    engine_->attach_journal(journal_.get());
    if (maintainer_ != nullptr) maintainer_->attach_journal(journal_.get());
  }

  if (telemetry_ != nullptr) {
    obs::MetricRegistry& registry = telemetry_->metrics;
    hist_apply_ = &registry.histogram("session.apply.latency");
    hist_mutate_ = &registry.histogram("session.phase.mutate");
    hist_repair_ = &registry.histogram("session.phase.repair");
    hist_reprove_ = &registry.histogram("session.phase.reprove");
    hist_verify_ = &registry.histogram("session.phase.verify");
    const auto stat = [this](std::uint64_t SessionStats::*field) {
      return [this, field] { return static_cast<double>(stats_.*field); };
    };
    registry.derived("session.batches", stat(&SessionStats::batches), this);
    registry.derived("session.repaired", stat(&SessionStats::repaired),
                     this);
    registry.derived("session.declined", stat(&SessionStats::declined),
                     this);
    registry.derived("session.reproves", stat(&SessionStats::reproves),
                     this);
    registry.derived("session.failed_proves",
                     stat(&SessionStats::failed_proves), this);
    registry.derived("session.repair_ops", stat(&SessionStats::repair_ops),
                     this);
    registry.derived("session.verifies", stat(&SessionStats::verifies),
                     this);
    registry.derived(
        "session.maintainer_bound",
        [this] { return bound_ ? 1.0 : 0.0; }, this);
    engine_->attach_telemetry(telemetry_.get());
    if (maintainer_ != nullptr) {
      maintainer_->register_metrics(registry, this);
    }
  }
}

VerificationSession::~VerificationSession() {
  // The tracker dies with the session; don't leave the engine dangling.
  if (engine_ != nullptr) engine_->attach_tracker(nullptr);
  // Withdraw the session's (and maintainer's) derived gauges; the engine
  // withdraws its own when it is destroyed, before telemetry_ (declared
  // first, destroyed last) releases the registry.
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void VerificationSession::reprove(MutationBatch* applied_diff) {
  ++stats_.reproves;
  auto fresh = scheme_->prove(graph_);
  if (fresh.has_value()) {
    MutationBatch diff;
    diff_proofs_into_batch(proof_, *fresh, &diff);
    if (!diff.empty()) tracker_->apply(diff);
    obs::maybe_emit(
        journal_.get(), obs::JournalEventKind::kReprove, "session",
        {{"ops", static_cast<std::int64_t>(diff.size())}, {"failed", 0}});
    if (applied_diff != nullptr) *applied_diff = std::move(diff);
  } else {
    // No-instance: no valid proof exists, so the stale assignment is as
    // good as any — soundness guarantees a rejection either way.
    ++stats_.failed_proves;
    obs::maybe_emit(journal_.get(), obs::JournalEventKind::kReprove,
                    "session", {{"ops", 0}, {"failed", 1}});
  }
  if (maintainer_ != nullptr) bound_ = maintainer_->bind(graph_, proof_);
}

void VerificationSession::note_repair(std::uint64_t batch_index,
                                      std::string source,
                                      const MutationBatch& repair) {
  RepairNote note;
  note.entry.batch_index = batch_index;
  note.entry.maintainer = std::move(source);
  note.entry.ops = repair.size();
  for (const MutationBatch::Op& op : repair.ops()) {
    if (op.u >= 0) note.touched.push_back(op.u);
    if (op.v >= 0) note.touched.push_back(op.v);
  }
  std::sort(note.touched.begin(), note.touched.end());
  note.touched.erase(std::unique(note.touched.begin(), note.touched.end()),
                     note.touched.end());
  repair_notes_.push_back(std::move(note));
  while (repair_notes_.size() > forensics_options_.max_repair_history) {
    repair_notes_.pop_front();
  }
}

void VerificationSession::spot_note_repair(const MutationBatch& repair) {
  if (spot_ == nullptr || repair.empty()) return;
  std::vector<int> touched;
  for (const MutationBatch::Op& op : repair.ops()) {
    if (op.u >= 0) touched.push_back(op.u);
    if (op.v >= 0) touched.push_back(op.v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  spot_->note_repair(touched);
}

void VerificationSession::sync_spot_stats() {
  if (spot_ == nullptr) return;
  const SpotCheckEngine::Stats& s = spot_->stats();
  stats_.spot_sampled = s.balls_sampled;
  stats_.spot_skipped = s.balls_skipped;
  stats_.spot_escalations = s.escalations;
  stats_.spot_miss_bound = s.miss_bound;
}

void VerificationSession::finish_verdict(const MutationBatch& batch,
                                         const MutationBatch& repair,
                                         const Graph* pre_graph,
                                         const Proof* pre_proof,
                                         const RunResult& result) {
  const bool flipped = result.all_accept != last_all_accept_;
  last_all_accept_ = result.all_accept;
  if (!flipped) return;
  obs::maybe_emit(
      journal_.get(), obs::JournalEventKind::kVerdictFlip, "session",
      {{"accepting", result.all_accept ? 1 : 0},
       {"rejecting", static_cast<std::int64_t>(result.rejecting.size())},
       {"generation", static_cast<std::int64_t>(tracker_->generation())}});
  if (result.all_accept || pre_graph == nullptr || pre_proof == nullptr) {
    return;
  }
  obs::RejectionReport report = obs::capture_rejection(
      *pre_graph, *pre_proof, graph_, proof_, scheme_->verifier(), result,
      batch, repair, forensics_options_);
  report.batch_index = stats_.batches;
  report.generation = tracker_->generation();
  report.scheme = scheme_->name();
  report.engine = engine_name_;
  for (const RepairNote& note : repair_notes_) {
    obs::RepairHistoryEntry entry = note.entry;
    for (int v : note.touched) {
      if (std::binary_search(result.rejecting.begin(),
                             result.rejecting.end(), v)) {
        ++entry.ops_on_rejecting;
      }
    }
    report.repair_history.push_back(std::move(entry));
  }
  if (journal_ != nullptr) {
    report.journal_window =
        journal_->tail(forensics_options_.max_journal_window);
  }
  last_rejection_ = std::move(report);
}

RunResult VerificationSession::apply(const MutationBatch& batch) {
  const ApplyScope apply_guard(*this);
  // Phase instrumentation: each scope is a trace span plus a latency
  // histogram sample, and a no-op (one branch) when telemetry is off.
  // Engine-side spans (incremental.dirty_scan, sharded.halo_exchange...)
  // nest under the verify scope on the same thread.
  PhaseScope apply_scope(telemetry_.get(), "session.apply", hist_apply_);
  ++stats_.batches;
  // Forensic pre-state: copies of the pair from before the batch touched
  // it, the shrink predicate's baseline.  Only taken when forensics is on
  // (apply() stays allocation-identical to PR 7 otherwise).
  std::optional<Graph> pre_graph;
  std::optional<Proof> pre_proof;
  if (forensics_) {
    pre_graph = graph_;
    pre_proof = proof_;
  }
  {
    PhaseScope scope(telemetry_.get(), "session.mutate", hist_mutate_);
    tracker_->apply(batch);
  }
  obs::maybe_emit(
      journal_.get(), obs::JournalEventKind::kBatchApplied, "session",
      {{"ops", static_cast<std::int64_t>(batch.size())},
       {"generation", static_cast<std::int64_t>(tracker_->generation())}});
  // `repair` ends up holding whatever healed the proof — the maintainer's
  // repair batch or the reprove diff — for the forensic report.
  MutationBatch repair;
  bool repaired = false;
  if (bound_) {
    PhaseScope scope(telemetry_.get(), "session.repair", hist_repair_);
    if (maintainer_->repair(graph_, proof_, batch, &repair)) {
      repaired = true;
      ++stats_.repaired;
      stats_.repair_ops += repair.size();
      if (!repair.empty()) tracker_->apply(repair);
      spot_note_repair(repair);
      if (forensics_ && !repair.empty()) {
        note_repair(stats_.batches, maintainer_->name(), repair);
      }
    } else {
      ++stats_.declined;
      bound_ = false;
      obs::maybe_emit(journal_.get(),
                      obs::JournalEventKind::kRepairDeclined, "session",
                      {{"ops", static_cast<std::int64_t>(batch.size())}});
      repair.clear();
    }
  }
  RunResult result = run_engine();
  if (!repaired) {
    if (!result.all_accept) {
      // The held proof stopped verifying: only now is the prover needed.
      {
        PhaseScope scope(telemetry_.get(), "session.reprove", hist_reprove_);
        reprove(&repair);
        spot_note_repair(repair);
        if (forensics_ && !repair.empty()) {
          note_repair(stats_.batches, "reprove", repair);
        }
      }
      // An empty diff (failed prove) left the state, and so the exact
      // REJECT, as it was.
      if (!repair.empty()) result = run_engine();
    } else if (maintainer_ != nullptr) {
      // The held proof still verifies; rebind a maintainer that declined
      // to it, as reprove() would have to a fresh one.
      bound_ = maintainer_->bind(graph_, proof_);
    }
  }
  sync_spot_stats();
  finish_verdict(batch, repair, pre_graph ? &*pre_graph : nullptr,
                 pre_proof ? &*pre_proof : nullptr, result);
  return result;
}

RunResult VerificationSession::run_engine() {
  ++stats_.verifies;
  PhaseScope scope(telemetry_.get(), "session.verify", hist_verify_);
  return engine_->run(graph_, proof_, scheme_->verifier());
}

RunResult VerificationSession::verify() {
  const ApplyScope apply_guard(*this);
  RunResult result = run_engine();
  sync_spot_stats();
  // Keep the flip baseline honest for out-of-band verify() calls; no
  // capture here — there is no offending batch to report.
  if (result.all_accept != last_all_accept_) {
    last_all_accept_ = result.all_accept;
    obs::maybe_emit(
        journal_.get(), obs::JournalEventKind::kVerdictFlip, "session",
        {{"accepting", result.all_accept ? 1 : 0},
         {"rejecting", static_cast<std::int64_t>(result.rejecting.size())},
         {"generation",
          static_cast<std::int64_t>(tracker_->generation())}});
  }
  return result;
}

SessionTelemetry VerificationSession::telemetry() const {
  SessionTelemetry out;
  if (telemetry_ == nullptr) return out;
  out.enabled = true;
  out.applies = hist_apply_->count();
  out.apply_p50_us =
      static_cast<double>(hist_apply_->percentile(50)) / 1000.0;
  out.apply_p90_us =
      static_cast<double>(hist_apply_->percentile(90)) / 1000.0;
  out.apply_p99_us =
      static_cast<double>(hist_apply_->percentile(99)) / 1000.0;
  const std::pair<const char*, const obs::LatencyHistogram*> phases[] = {
      {"mutate", hist_mutate_},
      {"repair", hist_repair_},
      {"reprove", hist_reprove_},
      {"verify", hist_verify_},
  };
  for (const auto& [name, hist] : phases) {
    SessionTelemetry::Phase phase;
    phase.name = name;
    phase.count = hist->count();
    phase.total_us = static_cast<double>(hist->sum_ns()) / 1000.0;
    phase.p99_us = static_cast<double>(hist->percentile(99)) / 1000.0;
    out.phases.push_back(std::move(phase));
  }
  return out;
}

}  // namespace lcp
