#include "core/sharded_engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "obs/journal.hpp"
#include "obs/telemetry.hpp"

namespace lcp {

void register_transport_metrics(obs::MetricRegistry& registry,
                                std::shared_ptr<ShardTransport> transport,
                                const std::string& prefix,
                                const void* owner) {
  const auto stat = [transport](std::uint64_t TransportStats::*field) {
    return [transport, field] {
      return static_cast<double>(transport->stats().*field);
    };
  };
  registry.derived(prefix + ".messages", stat(&TransportStats::messages),
                   owner);
  registry.derived(prefix + ".requested_nodes",
                   stat(&TransportStats::requested_nodes), owner);
  registry.derived(prefix + ".records", stat(&TransportStats::records),
                   owner);
  registry.derived(prefix + ".proof_patches",
                   stat(&TransportStats::proof_patches), owner);
  registry.derived(prefix + ".bytes", stat(&TransportStats::bytes), owner);
  registry.derived(
      prefix + ".queue_depth",
      [transport] { return static_cast<double>(transport->queue_depth()); },
      owner);
  registry.derived(
      prefix + ".max_queue_depth",
      [transport] {
        return static_cast<double>(transport->max_queue_depth());
      },
      owner);
}

std::shared_ptr<Partitioner> make_partitioner(std::string_view name) {
  if (name == "range") return std::make_shared<RangePartitioner>();
  if (name == "hash") return std::make_shared<HashPartitioner>();
  throw std::invalid_argument("unknown partitioner: " + std::string(name));
}

ShardedEngineOptions parse_sharded_spec(std::string_view name) {
  // Grammar: "sharded", "sharded:K", "sharded:K:range", "sharded:K:hash".
  ShardedEngineOptions options;
  if (name == "sharded") return options;
  constexpr std::string_view prefix = "sharded:";
  if (name.substr(0, prefix.size()) != prefix) {
    throw std::invalid_argument("not a sharded engine spec: " +
                                std::string(name));
  }
  std::string_view rest = name.substr(prefix.size());
  const std::size_t colon = rest.find(':');
  const std::string_view count =
      colon == std::string_view::npos ? rest : rest.substr(0, colon);
  if (count.empty()) {
    throw std::invalid_argument("bad shard count in: " + std::string(name));
  }
  int k = 0;
  for (char ch : count) {
    if (ch < '0' || ch > '9') {
      throw std::invalid_argument("bad shard count in: " + std::string(name));
    }
    k = k * 10 + (ch - '0');
    if (k > 4096) {
      throw std::invalid_argument("shard count out of range: " +
                                  std::string(name));
    }
  }
  if (k < 1) {
    throw std::invalid_argument("shard count out of range: " +
                                std::string(name));
  }
  options.shards = k;
  if (colon != std::string_view::npos) {
    options.partitioner = make_partitioner(rest.substr(colon + 1));
  }
  return options;
}

// All per-shard state.  A lane owns its Shard exclusively while a dispatch
// is in flight; the coordinator touches shards only between dispatches.
// Cross-shard communication goes through the transport — never through
// another shard's fields.
struct ShardedEngine::Shard {
  int index = 0;

  // --- Partition + local graph -------------------------------------------
  // Owned host indices, ascending (built ascending at rebuild; appended
  // nodes only ever grow the host index space, so order is preserved).
  std::vector<int> owned;
  // Local replica: owned nodes first (in `owned` order), then ghosts in
  // halo-discovery arrival order.  Host ids, labels, and edge-record
  // direction are preserved, so extraction from `local` is bit-identical to
  // extraction from the host.
  Graph local;
  std::vector<int> local_to_host;  // local index -> host index
  std::vector<int> depth;          // local index -> distance from owned set
  Proof local_proof;               // proof labels, local index order
  // Stored depths are exact except after an unhandled removal pattern
  // (both-local removal touching a ghost); then they are upper bounds only
  // and any boundary-relevant op must trigger a halo rebuild.
  bool depths_stale = false;

  // local index -> owned position, -1 for ghosts.
  std::vector<int> local_pos;

  // --- Per-centre verdicts (indexed by owned position) --------------------
  std::vector<std::uint8_t> verdicts;
  std::vector<int> reject_pos;  // owned positions with verdict 0, ascending
  CentreVerifier lane;

  // --- Per-run routing state (coordinator writes, lane reads) ------------
  std::vector<ViewDelta> pending_ops;   // graph deltas with a local endpoint
  std::vector<int> pending_proofs;      // owned hosts with changed proofs
  std::vector<int> pending_centres;     // owned hosts the tracker dirtied
  bool needs_halo = false;              // fringe may have moved: re-exchange
  bool rebuilt = false;                 // skeleton+halo rebuilt this run
  bool touched = false;                 // lane must run this round
  bool has_patches = false;             // ghost proof patches in the mailbox

  // --- Halo-discovery scratch --------------------------------------------
  std::unordered_set<int> requested;         // hosts already asked for
  std::vector<std::vector<int>> round_requests;  // per target shard
  // Record replies that arrived while this lane was still serving
  // requests (mailbox drains are wholesale; replies are held for the
  // integration phase).
  std::vector<HaloMessage> held;

  // --- Lane scratch -------------------------------------------------------
  std::vector<int> epicentres;  // local indices whose r-ball is dirty
  std::vector<int> dirty_list;  // owned positions, ascending once sorted
  std::vector<std::uint64_t> dirty_epoch;  // per owned position
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> out;
  std::size_t last_dirty = 0;

  // Per-run counter, summed into Stats by the coordinator after the
  // dispatch returns (lanes must not touch shared stats).
  std::uint64_t ctr_reverified = 0;

  // Dense host -> local map, -1 when absent.  Sized to the host node count.
  std::vector<int> host_to_local;
};

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)) {}

ShardedEngine::~ShardedEngine() {
  if (telemetry_ != nullptr) telemetry_->metrics.remove_owned(this);
}

void ShardedEngine::attach_telemetry(obs::Telemetry* telemetry) {
  if (telemetry_ != nullptr && telemetry_ != telemetry) {
    telemetry_->metrics.remove_owned(this);
  }
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  const auto stat = [this](std::uint64_t Stats::*field) {
    return [this, field] { return static_cast<double>(stats_.*field); };
  };
  registry.derived("engine.sharded.full_sweeps", stat(&Stats::full_sweeps),
                   this);
  registry.derived("engine.sharded.incremental_runs",
                   stat(&Stats::incremental_runs), this);
  registry.derived("engine.sharded.unchanged_runs",
                   stat(&Stats::unchanged_runs), this);
  registry.derived("engine.sharded.fallbacks", stat(&Stats::fallbacks),
                   this);
  registry.derived("engine.sharded.nodes_reverified",
                   stat(&Stats::nodes_reverified), this);
  registry.derived("engine.sharded.reextractions",
                   stat(&Stats::reextractions), this);
  registry.derived("engine.sharded.halo_rebuilds",
                   stat(&Stats::halo_rebuilds), this);
  registry.derived("engine.sharded.shards_woken",
                   stat(&Stats::shards_woken), this);
  if (k_ > 0) register_runtime_metrics();
}

void ShardedEngine::register_runtime_metrics() {
  if (telemetry_ == nullptr) return;
  obs::MetricRegistry& registry = telemetry_->metrics;
  if (transport_ != nullptr) {
    register_transport_metrics(registry, transport_, "transport.halo", this);
  }
  if (pool_ != nullptr) {
    pool_->register_metrics(registry, "pool.sharded", this);
  }
  registry.derived(
      "engine.sharded.shards",
      [this] { return static_cast<double>(k_); }, this);
  for (int s = 0; s < k_; ++s) {
    registry.derived(
        "engine.sharded.shard" + std::to_string(s) + ".last_dirty",
        [this, s] {
          return s < static_cast<int>(stats_.last_dirty_per_shard.size())
                     ? static_cast<double>(
                           stats_.last_dirty_per_shard[static_cast<
                               std::size_t>(s)])
                     : 0.0;
        },
        this);
  }
}

int ShardedEngine::shard_count() const {
  if (k_ > 0) return k_;
  if (options_.shards > 0) return options_.shards;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ShardedEngine::ensure_configured() {
  if (k_ > 0) return;
  k_ = shard_count();
  if (partitioner_ == nullptr) {
    partitioner_ = options_.partitioner != nullptr
                       ? options_.partitioner
                       : std::make_shared<RangePartitioner>();
  }
  if (transport_ == nullptr) {
    transport_ = options_.transport != nullptr
                     ? options_.transport
                     : std::make_shared<InProcessTransport>();
  }
  if (journal_ != nullptr) transport_->attach_journal(journal_);
  transport_->reset(k_);
  if (k_ > 1) pool_ = std::make_unique<WorkerPool>(k_);
  shards_.clear();
  for (int s = 0; s < k_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shards_.push_back(std::move(shard));
  }
  register_runtime_metrics();
}

bool ShardedEngine::attach_tracker(DeltaTracker* tracker) {
  tracker_ = tracker;
  invalidate();
  if (tracker_ != nullptr) consumed_generation_ = tracker_->generation();
  return true;
}

void ShardedEngine::invalidate() {
  cache_valid_ = false;
  cache_from_tracker_ = false;
  cached_verifier_ = nullptr;
  cached_radius_ = -1;
  cached_graph_fp_ = 0;
  cached_graph_fp_valid_ = false;
  consumed_generation_ = 0;
  host_n_ = 0;
  last_proofs_.clear();
  for (auto& shard : shards_) {
    shard->owned.clear();
    shard->local = Graph();
    shard->local_to_host.clear();
    shard->host_to_local.clear();
    shard->depth.clear();
    shard->local_proof = Proof();
    shard->local_pos.clear();
    shard->verdicts.clear();
    shard->reject_pos.clear();
  }
}

RunResult ShardedEngine::result_from_rejects(const Graph& g) const {
  (void)g;
  RunResult result;
  for (const auto& shard : shards_) {
    for (int pos : shard->reject_pos) {
      result.rejecting.push_back(shard->owned[static_cast<std::size_t>(pos)]);
    }
  }
  // Per-shard lists are ascending in host index already (owned is
  // ascending); the global merge is a cheap sort over rejects only.
  std::sort(result.rejecting.begin(), result.rejecting.end());
  result.all_accept = result.rejecting.empty();
  return result;
}

RunResult ShardedEngine::run(const Graph& g, const Proof& p,
                             const LocalVerifier& a) {
  ensure_configured();
  RunResult result;
  try {
    result = run_impl(g, p, a);
  } catch (...) {
    // A throwing verifier (or transport) can leave shard state half
    // updated; drop it so the next run rebuilds from scratch.
    invalidate();
    throw;
  }
  attribution_.finish(g, a, &result);
  return result;
}

RunResult ShardedEngine::run_impl(const Graph& g, const Proof& p,
                                  const LocalVerifier& a) {
  if (tracker_ != nullptr && &tracker_->graph() == &g &&
      &tracker_->proof() == &p && tracker_->horizon() >= a.radius()) {
    return run_tracker_path(g, p, a);
  }
  return run_content_path(g, p, a);
}

void ShardedEngine::attach_journal(obs::Journal* journal) {
  journal_ = journal;
  if (transport_ != nullptr) transport_->attach_journal(journal);
}

void ShardedEngine::dispatch_lanes(const std::function<void(int)>& job) {
  if (k_ == 1 || pool_ == nullptr) {
    for (int s = 0; s < k_; ++s) job(s);
    return;
  }
  obs::maybe_emit(journal_, obs::JournalEventKind::kLaneDispatch,
                  "engine.sharded", {{"lanes", k_}});
  pool_->dispatch(k_, job);
}

// ---------------------------------------------------------------------------
// Halo exchange
// ---------------------------------------------------------------------------

void ShardedEngine::reset_shard_skeleton(const Graph& g, const Proof& p,
                                         Shard& sh) {
  sh.host_to_local.resize(static_cast<std::size_t>(g.n()), -1);
  std::fill(sh.host_to_local.begin(), sh.host_to_local.end(), -1);
  sh.local = Graph();
  sh.local_to_host.clear();
  sh.depth.clear();
  sh.local_proof = Proof();
  sh.local_pos.clear();
  sh.depths_stale = false;
  sh.requested.clear();
  sh.round_requests.assign(static_cast<std::size_t>(k_), {});

  // Owned nodes, ascending host order: local index == owned position here.
  for (int host : sh.owned) {
    const int l = sh.local.add_node(g.id(host), g.label(host));
    sh.host_to_local[static_cast<std::size_t>(host)] = l;
    sh.local_to_host.push_back(host);
    sh.local_pos.push_back(l);
    sh.depth.push_back(0);
    sh.local_proof.labels.push_back(p.labels[static_cast<std::size_t>(host)]);
  }
  // Owned-owned induced edges, in host record direction (extraction emits
  // ball edges in the direction of the local edge record, so the replica
  // must store (u, v) exactly as the host does).
  for (int host : sh.owned) {
    const int lu = sh.host_to_local[static_cast<std::size_t>(host)];
    for (const HalfEdge& h : g.neighbors(host)) {
      const int lv = sh.host_to_local[static_cast<std::size_t>(h.to)];
      if (lv < 0) continue;
      if (sh.local.has_edge(lu, lv)) continue;
      const bool host_is_u = g.edge_u(h.edge) == host;
      const int a = host_is_u ? lu : lv;
      const int b = host_is_u ? lv : lu;
      sh.local.add_edge(a, b, g.edge_label(h.edge), g.edge_weight(h.edge));
    }
  }
  // Depth-1 frontier: every non-local neighbour of an owned node.
  for (int host : sh.owned) {
    for (const HalfEdge& h : g.neighbors(host)) {
      if (sh.host_to_local[static_cast<std::size_t>(h.to)] >= 0) continue;
      if (!sh.requested.insert(h.to).second) continue;
      sh.round_requests[static_cast<std::size_t>(owner_[static_cast<
          std::size_t>(h.to)])].push_back(h.to);
    }
  }
}

void ShardedEngine::exchange_halos(const Graph& g, const Proof& p, int radius,
                                   const std::vector<int>& rebuild) {
  const obs::TraceRecorder::Span span =
      obs::maybe_span(telemetry_, "sharded.halo_exchange");
  obs::maybe_emit(journal_, obs::JournalEventKind::kHaloExchange,
                  "engine.sharded",
                  {{"rebuilds", static_cast<std::int64_t>(rebuild.size())},
                   {"radius", radius}});
  std::vector<char> rebuilding(static_cast<std::size_t>(k_), 0);
  for (int s : rebuild) rebuilding[static_cast<std::size_t>(s)] = 1;

  dispatch_lanes([&](int s) {
    if (rebuilding[static_cast<std::size_t>(s)]) {
      reset_shard_skeleton(g, p, *shards_[static_cast<std::size_t>(s)]);
    }
  });

  // r rounds; each round is three barriered phases so every request of the
  // round is in flight before any lane drains, and every record before any
  // lane integrates.  Phase barriers come from separate dispatches (the
  // pool joins all lanes between them).
  for (int round = 1; round <= radius; ++round) {
    // Phase a: rebuilding lanes send this round's requests.
    dispatch_lanes([&](int s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (!rebuilding[static_cast<std::size_t>(s)]) return;
      for (int target = 0; target < k_; ++target) {
        auto& wanted = sh.round_requests[static_cast<std::size_t>(target)];
        if (wanted.empty()) continue;
        HaloMessage msg;
        msg.kind = HaloMessage::Kind::kRequest;
        msg.from = s;
        msg.to = target;
        msg.requests = std::move(wanted);
        wanted.clear();
        transport_->send(std::move(msg));
      }
    });
    // Phase b: every lane serves the requests in its mailbox (a shard that
    // is not rebuilding still owns nodes others need).  A fast server's
    // kRecords reply can land in a mailbox that is still being drained
    // here, so non-request messages are held for phase c instead of being
    // misread as requests.
    dispatch_lanes([&](int s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      HaloMessage msg;
      while (transport_->receive(s, &msg)) {
        if (msg.kind != HaloMessage::Kind::kRequest) {
          sh.held.push_back(std::move(msg));
          continue;
        }
        HaloMessage reply;
        reply.kind = HaloMessage::Kind::kRecords;
        reply.from = s;
        reply.to = msg.from;
        reply.records.reserve(msg.requests.size());
        for (int host : msg.requests) {
          HaloNodeRecord rec;
          rec.host = host;
          rec.id = g.id(host);
          rec.label = g.label(host);
          rec.proof = p.labels[static_cast<std::size_t>(host)];
          for (const HalfEdge& h : g.neighbors(host)) {
            HaloNeighbor nb;
            nb.host = h.to;
            nb.elabel = g.edge_label(h.edge);
            nb.weight = g.edge_weight(h.edge);
            nb.record_is_u = g.edge_u(h.edge) == host;
            rec.neighbors.push_back(nb);
          }
          reply.records.push_back(std::move(rec));
        }
        transport_->send(std::move(reply));
      }
    });
    // Phase c: rebuilding lanes integrate the records (held plus mailbox)
    // and queue the next frontier.  Ghost arrival order sets local
    // indices, but extraction depends only on ids, membership, and edge
    // direction — never on local numbering — so the order is free.
    dispatch_lanes([&](int s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (!rebuilding[static_cast<std::size_t>(s)]) return;
      auto integrate = [&](const HaloMessage& msg) {
        for (const HaloNodeRecord& rec : msg.records) {
          const int l = sh.local.add_node(rec.id, rec.label);
          sh.host_to_local[static_cast<std::size_t>(rec.host)] = l;
          sh.local_to_host.push_back(rec.host);
          sh.local_pos.push_back(-1);
          sh.depth.push_back(round);
          sh.local_proof.labels.push_back(rec.proof);
          for (const HaloNeighbor& nb : rec.neighbors) {
            const int ln =
                sh.host_to_local[static_cast<std::size_t>(nb.host)];
            if (ln >= 0) {
              // Induced edge to an already-local node, host direction.
              const int a = nb.record_is_u ? l : ln;
              const int b = nb.record_is_u ? ln : l;
              if (!sh.local.has_edge(a, b)) {
                sh.local.add_edge(a, b, nb.elabel, nb.weight);
              }
            } else if (round < radius) {
              if (sh.requested.insert(nb.host).second) {
                sh.round_requests[static_cast<std::size_t>(
                    owner_[static_cast<std::size_t>(nb.host)])]
                    .push_back(nb.host);
              }
            }
          }
        }
      };
      for (const HaloMessage& msg : sh.held) integrate(msg);
      sh.held.clear();
      HaloMessage msg;
      while (transport_->receive(s, &msg)) integrate(msg);
    });
  }

  for (int s : rebuild) {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    sh.rebuilt = true;
    sh.depths_stale = false;
  }
}

// ---------------------------------------------------------------------------
// Full rebuild
// ---------------------------------------------------------------------------

void ShardedEngine::lane_sweep(const LocalVerifier& a, Shard& sh) {
  // Extraction reads the local replica, never the host.
  const std::size_t count = sh.owned.size();
  sh.verdicts.assign(count, 1);
  sh.reject_pos.clear();
  sh.lane.verify(
      sh.local, sh.local_proof, a, count,
      [&sh](std::size_t c) {
        return sh.host_to_local[static_cast<std::size_t>(sh.owned[c])];
      },
      sh.verdicts.data());
  for (std::size_t c = 0; c < count; ++c) {
    if (!sh.verdicts[c]) sh.reject_pos.push_back(static_cast<int>(c));
  }
}

RunResult ShardedEngine::full_rebuild(const Graph& g, const Proof& p,
                                      const LocalVerifier& a) {
  const obs::TraceRecorder::Span span =
      obs::maybe_span(telemetry_, "sharded.full_rebuild");
  ++stats_.full_sweeps;
  const int n = g.n();
  const int radius = a.radius();
  cache_valid_ = false;

  partitioner_->bind(g, k_);
  owner_.assign(static_cast<std::size_t>(n), 0);
  for (auto& shard : shards_) shard->owned.clear();
  for (int v = 0; v < n; ++v) {
    const int s = partitioner_->owner(g, v);
    owner_[static_cast<std::size_t>(v)] = s;
    shards_[static_cast<std::size_t>(s)]->owned.push_back(v);
  }
  transport_->reset(k_);

  std::vector<int> all(static_cast<std::size_t>(k_));
  for (int s = 0; s < k_; ++s) all[static_cast<std::size_t>(s)] = s;
  exchange_halos(g, p, radius, all);
  dispatch_lanes(
      [&](int s) { lane_sweep(a, *shards_[static_cast<std::size_t>(s)]); });
  for (auto& shard : shards_) shard->rebuilt = false;

  host_n_ = n;
  last_proofs_ = p.labels;
  proof_seen_.assign(static_cast<std::size_t>(n), 0);
  proof_epoch_ = 0;
  cached_verifier_ = &a;
  cached_radius_ = radius;
  cached_graph_fp_ = graph_fingerprint(g);
  cached_graph_fp_valid_ = true;
  cache_valid_ = true;

  RunResult result = result_from_rejects(g);
  result.evaluated = static_cast<std::uint64_t>(n);
  return result;
}

// ---------------------------------------------------------------------------
// Delta routing (coordinator side)
// ---------------------------------------------------------------------------

void ShardedEngine::route_delta(const Graph& g, const ViewDelta& d,
                                int radius) {
  if (d.kind == ViewDelta::Kind::kAddNode) {
    // The coordinator performs all node growth itself, sequentially:
    // later ops of the same batch may reference the new node, so every
    // shard's host_to_local must already account for it when they are
    // routed, and the owner shard's replica must contain it before its
    // lane replays anything.
    const int v = d.u;
    const int s = partitioner_->owner(g, v);
    owner_.push_back(s);
    proof_seen_.push_back(0);
    last_proofs_.push_back(BitString());
    for (auto& shard : shards_) shard->host_to_local.push_back(-1);
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    const int l = sh.local.add_node(g.id(v), g.label(v));
    sh.host_to_local[static_cast<std::size_t>(v)] = l;
    sh.local_to_host.push_back(v);
    sh.local_pos.push_back(static_cast<int>(sh.owned.size()));
    sh.depth.push_back(0);
    // An added node starts with an empty proof label; a later proof op in
    // the batch arrives through pending_proofs.  The tracker lists v as
    // structurally dirty, so its owner verifies it this run.
    sh.local_proof.labels.push_back(BitString());
    sh.owned.push_back(v);
    sh.verdicts.push_back(1);
    ++host_n_;
    return;
  }

  const auto local_of = [&](Shard& sh, int host) {
    return host < static_cast<int>(sh.host_to_local.size())
               ? sh.host_to_local[static_cast<std::size_t>(host)]
               : -1;
  };

  for (auto& shard : shards_) {
    Shard& sh = *shard;
    const int lu = local_of(sh, d.u);
    const int lv = d.kind == ViewDelta::Kind::kNodeLabel ? -1
                                                         : local_of(sh, d.v);
    switch (d.kind) {
      case ViewDelta::Kind::kNodeLabel:
        if (lu >= 0) {
          sh.pending_ops.push_back(d);
          sh.touched = true;
        }
        break;
      case ViewDelta::Kind::kEdgeLabel:
      case ViewDelta::Kind::kEdgeWeight:
        // Label/weight ops never move the fringe; they matter only where
        // the edge is locally present (both endpoints local).
        if (lu >= 0 && lv >= 0) {
          sh.pending_ops.push_back(d);
          sh.touched = true;
        }
        break;
      case ViewDelta::Kind::kAddEdge: {
        if (lu >= 0 && lv >= 0) {
          sh.pending_ops.push_back(d);
          sh.touched = true;
          const bool u_owned =
              sh.depth[static_cast<std::size_t>(lu)] == 0;
          const bool v_owned =
              sh.depth[static_cast<std::size_t>(lv)] == 0;
          if (!(u_owned && v_owned) && !sh.needs_halo) {
            // A both-local edge can only pull new nodes within range when
            // it shortens a path from the owned set by 2 or more — i.e.
            // when the endpoint depths differ by >= 2 (Bellman-Ford
            // relaxation: |du - dv| <= 1 means no depth changes).  Stale
            // depths cannot be trusted for that argument.
            const int du = sh.depth[static_cast<std::size_t>(lu)];
            const int dv = sh.depth[static_cast<std::size_t>(lv)];
            if (sh.depths_stale || du - dv >= 2 || dv - du >= 2) {
              sh.needs_halo = true;
            }
          }
        } else if (lu >= 0 || lv >= 0) {
          const int l = lu >= 0 ? lu : lv;
          // One endpoint local: the other may now be within range.  At
          // stored depth == radius the new neighbour would sit at radius+1
          // — irrelevant — unless needs_halo is already set (stale depths
          // untrusted once a rebuild is pending: push everything local).
          if (sh.needs_halo || sh.depths_stale ||
              sh.depth[static_cast<std::size_t>(l)] < radius) {
            sh.needs_halo = true;
            sh.pending_ops.push_back(d);
            sh.touched = true;
          }
        }
        break;
      }
      case ViewDelta::Kind::kRemoveEdge:
        if (lu >= 0 && lv >= 0) {
          sh.pending_ops.push_back(d);
          sh.touched = true;
          const bool both_owned =
              sh.depth[static_cast<std::size_t>(lu)] == 0 &&
              sh.depth[static_cast<std::size_t>(lv)] == 0;
          if (!both_owned) {
            // Removing a boundary-region edge can push ghosts out of range
            // (their recorded depths become lower bounds no longer
            // realised).  Depths are now upper bounds only; any later
            // boundary-relevant op must force a halo rebuild.  Extraction
            // stays exact: it never leaves the radius-r ball, so ghosts
            // left out of range are never read.
            sh.depths_stale = true;
          }
        }
        // One or zero endpoints local: the edge is not in any local ball
        // (an edge enters a ball only with both endpoints in it, and balls
        // only contain local nodes), and a removal never brings nodes
        // closer — skip.
        break;
      case ViewDelta::Kind::kAddNode:
        break;  // handled above
    }
  }
}

void ShardedEngine::route_proofs(const Graph& g, const Proof& p,
                                 const std::vector<int>& hosts) {
  (void)g;
  // Per (owner, importer) batched patches; owners' own centres go through
  // pending_proofs directly.
  std::vector<HaloMessage> outbox;
  std::vector<int> outbox_index(static_cast<std::size_t>(k_) *
                                    static_cast<std::size_t>(k_),
                                -1);
  for (int u : hosts) {
    last_proofs_[static_cast<std::size_t>(u)] =
        p.labels[static_cast<std::size_t>(u)];
    const int o = owner_[static_cast<std::size_t>(u)];
    for (int s = 0; s < k_; ++s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (u >= static_cast<int>(sh.host_to_local.size()) ||
          sh.host_to_local[static_cast<std::size_t>(u)] < 0) {
        continue;
      }
      sh.touched = true;
      if (s == o) {
        sh.pending_proofs.push_back(u);
        continue;
      }
      const std::size_t key = static_cast<std::size_t>(o) *
                                  static_cast<std::size_t>(k_) +
                              static_cast<std::size_t>(s);
      if (outbox_index[key] < 0) {
        outbox_index[key] = static_cast<int>(outbox.size());
        HaloMessage msg;
        msg.kind = HaloMessage::Kind::kProofs;
        msg.from = o;
        msg.to = s;
        outbox.push_back(std::move(msg));
      }
      ProofPatch patch;
      patch.host = u;
      patch.bits = p.labels[static_cast<std::size_t>(u)];
      outbox[static_cast<std::size_t>(outbox_index[key])].proofs.push_back(
          std::move(patch));
      sh.has_patches = true;
    }
  }
  for (HaloMessage& msg : outbox) transport_->send(std::move(msg));
}

// ---------------------------------------------------------------------------
// Lane-side incremental replay
// ---------------------------------------------------------------------------

void ShardedEngine::lane_incremental(const Proof& p, const LocalVerifier& a,
                                     int radius, Shard& sh) {
  const auto local_of = [&sh](int host) {
    return host < static_cast<int>(sh.host_to_local.size())
               ? sh.host_to_local[static_cast<std::size_t>(host)]
               : -1;
  };
  sh.epicentres.clear();

  // 1. Ghost proof patches from owner shards.  A patch for a host we no
  // longer hold locally (ghost dropped by a halo rebuild) is safely
  // skipped: no owned centre is within r of a node outside the local set.
  if (sh.has_patches) {
    HaloMessage msg;
    while (transport_->receive(sh.index, &msg)) {
      for (const ProofPatch& patch : msg.proofs) {
        const int l = local_of(patch.host);
        if (l < 0) continue;
        sh.local_proof.labels[static_cast<std::size_t>(l)] = patch.bits;
        sh.epicentres.push_back(l);
      }
    }
    sh.has_patches = false;
  }
  // 2. Owned proof changes (`p` is the host proof; owned labels are ours).
  for (int u : sh.pending_proofs) {
    const int l = local_of(u);
    sh.local_proof.labels[static_cast<std::size_t>(l)] =
        p.labels[static_cast<std::size_t>(u)];
    sh.epicentres.push_back(l);
  }

  // 3. Reconcile the local replica with the routed ops and collect their
  // label epicentres.  A shard whose halo was just rebuilt already holds
  // the final state, so it only collects.  All ops are presence-checked
  // because the replica may legitimately lack state the op mentions (e.g.
  // an edge added then removed across rebuilds).
  for (const ViewDelta& d : sh.pending_ops) {
    const int lu = local_of(d.u);
    const int lv = d.kind == ViewDelta::Kind::kNodeLabel ? -1 : local_of(d.v);
    switch (d.kind) {
      case ViewDelta::Kind::kNodeLabel:
        if (lu < 0) break;
        if (!sh.rebuilt) sh.local.set_label(lu, d.label);
        sh.epicentres.push_back(lu);
        break;
      case ViewDelta::Kind::kAddEdge:
        // Host insertion order is (d.u, d.v): the tracker applies
        // add_edge(op.u, op.v), so the replica mirrors that direction.
        if (!sh.rebuilt && lu >= 0 && lv >= 0 && !sh.local.has_edge(lu, lv)) {
          sh.local.add_edge(lu, lv, d.label, d.weight);
        }
        break;
      case ViewDelta::Kind::kRemoveEdge:
        if (!sh.rebuilt && lu >= 0 && lv >= 0 && sh.local.has_edge(lu, lv)) {
          sh.local.remove_edge(lu, lv);
        }
        break;
      case ViewDelta::Kind::kEdgeLabel:
      case ViewDelta::Kind::kEdgeWeight: {
        if (lu < 0 || lv < 0) break;
        const int e = sh.local.edge_index(lu, lv);
        if (!sh.rebuilt && e >= 0) {
          if (d.kind == ViewDelta::Kind::kEdgeLabel) {
            sh.local.set_edge_label(e, d.label);
          } else {
            sh.local.set_edge_weight(e, d.weight);
          }
        }
        sh.epicentres.push_back(lu);
        break;
      }
      case ViewDelta::Kind::kAddNode:
        break;  // the coordinator grew the replica; the node is structural
    }
  }

  // 4. The dirty owned centres on the final replica: the tracker's
  // structural centres, plus the radius-r BFS around every label and
  // proof epicentre (ball symmetry: an owned centre within r of a node
  // reaches it through local nodes only).
  sh.dirty_epoch.resize(sh.owned.size(), 0);
  ++sh.epoch;
  sh.dirty_list.clear();
  const auto mark = [&sh](int pos) {
    std::uint64_t& seen = sh.dirty_epoch[static_cast<std::size_t>(pos)];
    if (seen == sh.epoch) return;
    seen = sh.epoch;
    sh.dirty_list.push_back(pos);
  };
  for (int c : sh.pending_centres) {
    mark(sh.local_pos[static_cast<std::size_t>(local_of(c))]);
  }
  for (int l : sh.epicentres) {
    for (int member : sh.lane.ball_members(sh.local, l, radius)) {
      const int pos = sh.local_pos[static_cast<std::size_t>(member)];
      if (pos >= 0) mark(pos);
    }
  }
  std::sort(sh.dirty_list.begin(), sh.dirty_list.end());

  // 5. Re-extract from the replica, re-verify, and maintain the verdicts
  // and the reject set.
  const std::size_t count = sh.dirty_list.size();
  sh.out.resize(count);
  sh.lane.verify(
      sh.local, sh.local_proof, a, count,
      [&](std::size_t i) {
        return local_of(sh.owned[static_cast<std::size_t>(sh.dirty_list[i])]);
      },
      sh.out.data());
  for (std::size_t i = 0; i < count; ++i) {
    const int c = sh.dirty_list[i];
    const bool ok = sh.out[i] != 0;
    const bool was_ok = sh.verdicts[static_cast<std::size_t>(c)] != 0;
    sh.verdicts[static_cast<std::size_t>(c)] = ok ? 1 : 0;
    if (ok != was_ok) {
      auto it = std::lower_bound(sh.reject_pos.begin(), sh.reject_pos.end(),
                                 c);
      if (ok) {
        if (it != sh.reject_pos.end() && *it == c) sh.reject_pos.erase(it);
      } else {
        sh.reject_pos.insert(it, c);
      }
    }
  }
  sh.ctr_reverified += count;
  sh.last_dirty = count;
}

// ---------------------------------------------------------------------------
// Tracker path
// ---------------------------------------------------------------------------

void ShardedEngine::reset_run_state() {
  for (auto& shard : shards_) {
    shard->pending_ops.clear();
    shard->pending_proofs.clear();
    shard->pending_centres.clear();
    shard->needs_halo = false;
    shard->rebuilt = false;
    shard->touched = false;
    shard->has_patches = false;
    shard->last_dirty = 0;
    shard->ctr_reverified = 0;
  }
}

std::uint64_t ShardedEngine::run_lanes(const Proof& p, const LocalVerifier& a,
                                       int radius) {
  int touched = 0;
  for (auto& shard : shards_) {
    if (shard->touched) ++touched;
  }
  stats_.shards_woken += static_cast<std::uint64_t>(touched);
  const obs::TraceRecorder::Span verify_span =
      obs::maybe_span(telemetry_, "sharded.verify");
  if (touched == 1) {
    // One shard woke: run its lane inline on the coordinator thread and
    // skip the pool round-trip entirely — the common case for
    // interior-local churn.
    for (auto& shard : shards_) {
      if (shard->touched) lane_incremental(p, a, radius, *shard);
    }
  } else if (touched > 1) {
    dispatch_lanes([&](int s) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      if (sh.touched) lane_incremental(p, a, radius, sh);
    });
  }

  stats_.last_dirty_per_shard.assign(static_cast<std::size_t>(k_), 0);
  std::uint64_t reverified = 0;
  for (auto& shard : shards_) {
    stats_.last_dirty_per_shard[static_cast<std::size_t>(shard->index)] =
        shard->last_dirty;
    reverified += shard->ctr_reverified;
  }
  stats_.nodes_reverified += reverified;
  stats_.reextractions += reverified;
  ++stats_.incremental_runs;
  return reverified;
}

RunResult ShardedEngine::run_tracker_path(const Graph& g, const Proof& p,
                                          const LocalVerifier& a) {
  const int radius = a.radius();

  auto rebuild = [&] {
    RunResult result = full_rebuild(g, p, a);
    cache_from_tracker_ = true;
    consumed_generation_ = tracker_->generation();
    return result;
  };

  if (!cache_valid_ || !cache_from_tracker_ || radius != cached_radius_ ||
      &a != cached_verifier_) {
    return rebuild();
  }
  const auto records = tracker_->records_since(consumed_generation_);
  if (!records.has_value()) {
    ++stats_.fallbacks;
    return rebuild();
  }
  if (options_.verify_state &&
      DeltaTracker::state_fingerprint_of(g, p) !=
          tracker_->state_fingerprint()) {
    ++stats_.fallbacks;
    tracker_->resync();
    return rebuild();
  }
  std::size_t added = 0;
  for (const DirtyRecord* record : *records) {
    added += record->added_nodes.size();
  }
  if (static_cast<std::size_t>(host_n_) + added !=
      static_cast<std::size_t>(g.n())) {
    ++stats_.fallbacks;
    return rebuild();
  }
  if (records->empty()) {
    ++stats_.unchanged_runs;
    return result_from_rejects(g);
  }
  reset_run_state();

  // Phase A: route every graph delta, in order, to the shards with a local
  // endpoint and each structurally dirty centre to its owner; collect the
  // proof epicentres (deduplicated across records).
  obs::TraceRecorder::Span route_span =
      obs::maybe_span(telemetry_, "sharded.route");
  bool graph_changed = false;
  ++proof_epoch_;
  proof_hosts_.clear();
  for (const DirtyRecord* record : *records) {
    for (const ViewDelta& d : record->deltas) {
      graph_changed = true;
      route_delta(g, d, radius);
    }
    // After the record's deltas, so owner_ already covers added nodes.
    for (int c : record->structural_dirty) {
      Shard& sh = *shards_[static_cast<std::size_t>(
          owner_[static_cast<std::size_t>(c)])];
      sh.pending_centres.push_back(c);
      sh.touched = true;
    }
    for (int u : record->proof_nodes) {
      std::uint64_t& seen = proof_seen_[static_cast<std::size_t>(u)];
      if (seen == proof_epoch_) continue;
      seen = proof_epoch_;
      proof_hosts_.push_back(u);
    }
  }
  if (graph_changed) cached_graph_fp_valid_ = false;
  route_span.close();

  // Phase B: re-exchange halos for shards whose fringe may have moved.
  // Must complete before any kProofs message is sent — discovery rounds
  // drain mailboxes wholesale and would otherwise swallow proof patches.
  std::vector<int> halo_rebuilds;
  for (auto& shard : shards_) {
    if (shard->needs_halo) halo_rebuilds.push_back(shard->index);
  }
  if (!halo_rebuilds.empty()) {
    exchange_halos(g, p, radius, halo_rebuilds);
    stats_.halo_rebuilds += halo_rebuilds.size();
    for (int s : halo_rebuilds) {
      // The rebuilt replica holds the final state; the lane still runs to
      // collect the batch's dirty centres.
      shards_[static_cast<std::size_t>(s)]->touched = true;
    }
  }

  // Phase C: ship proof patches (owner -> importer), then run the touched
  // lanes.
  route_proofs(g, p, proof_hosts_);
  const std::uint64_t reverified = run_lanes(p, a, radius);

  consumed_generation_ = tracker_->generation();
  RunResult result = result_from_rejects(g);
  result.evaluated = reverified;
  return result;
}

// ---------------------------------------------------------------------------
// Content path
// ---------------------------------------------------------------------------

RunResult ShardedEngine::run_content_path(const Graph& g, const Proof& p,
                                          const LocalVerifier& a) {
  const int n = g.n();
  const int radius = a.radius();
  const std::uint64_t fp = graph_fingerprint(g);

  if (!cache_valid_ || !cached_graph_fp_valid_ || fp != cached_graph_fp_ ||
      radius != cached_radius_ || &a != cached_verifier_ || host_n_ != n ||
      static_cast<int>(last_proofs_.size()) != n ||
      static_cast<int>(p.labels.size()) != n) {
    RunResult result = full_rebuild(g, p, a);
    cache_from_tracker_ = false;
    return result;
  }

  // Exact proof diff against the retained copy; route changed hosts as
  // proof patches exactly like a tracker round with no graph deltas.
  proof_hosts_.clear();
  for (int v = 0; v < n; ++v) {
    if (p.labels[static_cast<std::size_t>(v)] !=
        last_proofs_[static_cast<std::size_t>(v)]) {
      proof_hosts_.push_back(v);
    }
  }
  if (proof_hosts_.empty()) {
    ++stats_.unchanged_runs;
    return result_from_rejects(g);
  }
  reset_run_state();
  route_proofs(g, p, proof_hosts_);
  const std::uint64_t reverified = run_lanes(p, a, radius);
  // These verdicts now reflect a possibly foreign proof; the tracker path
  // must rebuild rather than trust them (same rule as IncrementalEngine).
  cache_from_tracker_ = false;
  RunResult result = result_from_rejects(g);
  result.evaluated = reverified;
  return result;
}

}  // namespace lcp
