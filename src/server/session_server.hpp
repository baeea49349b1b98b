// Verification-as-a-service: a long-lived server owning many concurrent
// VerificationSessions behind integer handles.
//
// The facade (core/session.hpp) is a single-caller object; the server is
// the daemon around it that makes the unit of traffic (session,
// delta-batch), per the ROADMAP north star:
//
//   - Admission: clients submit MutationBatches against a session handle.
//     Each session owns a bounded pending queue; a full queue answers
//     OVERLOADED (an explicit backpressure reply, not an error) instead
//     of growing without bound.  Every accepted batch gets a monotone
//     *ticket* to poll its verdict by.
//   - Coalescing: when a lane picks a session up, it drains everything
//     queued so far into ONE concatenated MutationBatch and calls
//     apply() once.  All drained tickets share that apply's verdict, so
//     the dirty-set BFS, repair dispatch, and (when the held proof is
//     rejected) the full reprove are paid once per coalesced group
//     instead of once per client batch.  Batch concatenation preserves
//     per-client recording order, so the final state, fingerprint, and
//     verdict are bit-identical to applying the same batches one at a
//     time (the fuzz test pins this against a single-threaded replay).
//   - Lanes: sessions are pinned to a lane (session_id % lanes) and each
//     lane serializes its sessions' applies, so the per-session
//     one-apply-at-a-time contract holds by construction while distinct
//     sessions apply concurrently.  The hand-off is a bounded MPMC ring
//     (mpmc_queue.hpp) per lane: a session appears at most once in its
//     ring (a scheduled flag under the session's queue mutex), and the
//     lane re-enqueues it after an apply if more batches arrived
//     meanwhile.  Lanes are hosted on the shared WorkerPool
//     (core/worker_pool.hpp), driven by one coordinator thread.
//   - Observability: server-level metrics ("server.sessions",
//     "server.queue_depth", "server.coalesced_batches", apply p50/p99
//     via the existing LatencyHistogram), journal events for
//     admit/coalesce/overload, and the pool's per-lane busy gauges under
//     "pool.server.*".
//
// The wire protocol (protocol.hpp) is served by handle_frame(), shared
// verbatim between the in-process LoopbackConnection (deterministic
// tests, benches) and the blocking-socket listener (socket_server.hpp).
#ifndef LCP_SERVER_SESSION_SERVER_HPP_
#define LCP_SERVER_SESSION_SERVER_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "core/worker_pool.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"
#include "server/mpmc_queue.hpp"
#include "server/protocol.hpp"

namespace lcp::server {

struct SessionServerOptions {
  /// Worker lanes applying batches (each session is pinned to one).
  int lanes = 4;
  /// Admission bound per session: a submission against a session with
  /// this many batches already queued gets OVERLOADED.
  std::size_t max_pending_per_session = 64;
  /// Per-lane ready-ring capacity (sessions, not batches; a session
  /// occupies at most one slot).
  std::size_t ready_capacity = 1024;
  /// Most client batches merged into one apply(); 0 = unlimited.  1
  /// disables coalescing — the one-apply-per-client-batch baseline the
  /// bench compares against.
  std::size_t max_coalesce = 0;
  /// Per-session verdict records kept for polling; older tickets answer
  /// "unknown" once evicted.
  std::size_t verdict_history = 1024;
  /// Keep every coalesced batch a session applied, in order (the fuzz
  /// test replays them single-threaded to prove bit-identity).
  bool record_applied_batches = false;
  /// Server-level metrics sink; sessions themselves run uninstrumented
  /// (per-session engine gauges would collide in one registry).
  std::shared_ptr<obs::Telemetry> telemetry;
  /// Flight recorder shared with every session (events carry labels).
  std::shared_ptr<obs::Journal> journal;
};

enum class AdmitStatus {
  kAccepted,
  kOverloaded,      ///< the session's pending queue is full; retry later
  kUnknownSession,
  kClosed,
};

enum class PollStatus {
  kDone,
  kPending,         ///< admitted, not yet applied
  kUnknownTicket,   ///< never issued, or evicted from the bounded history
  kUnknownSession,
};

/// The verdict of the apply() that served one admitted batch.
struct VerdictRecord {
  std::uint64_t ticket = 0;
  bool failed = false;        ///< the apply threw (malformed mutation)
  bool all_accept = false;
  std::uint32_t rejecting = 0;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t coalesced = 0;  ///< client batches merged into that apply
};

/// A point-in-time view of one session, for GET_STATS.
struct SessionSnapshot {
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  SessionStats stats;
  std::size_t queue_depth = 0;
  std::string engine;
};

struct OpenResult {
  bool ok = false;
  bool unknown_graph = false;  ///< distinguishes from a build failure
  std::uint64_t session_id = 0;
  std::string error;
};

class SessionServer {
 public:
  explicit SessionServer(SessionServerOptions options = {});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  // -- In-process service surface (the wire handlers call these). -------

  /// Registers (or replaces) a graph under a client-chosen id; sessions
  /// opened against it start from a private copy.
  void submit_graph(std::uint64_t graph_id, Graph graph);

  /// Builds a session over a copy of the identified graph.  `engine` is
  /// a make_engine spec (empty selects "incremental"); `maintain` binds
  /// the scheme's ProofMaintainer when it has one.
  OpenResult open_session(std::uint64_t graph_id, const std::string& scheme,
                          const std::string& engine, bool maintain);

  /// Admits one batch.  On kAccepted, *ticket receives the poll key and
  /// *queue_depth the session's depth after admission; on kOverloaded,
  /// *queue_depth reports the full queue.
  AdmitStatus apply_deltas(std::uint64_t session_id, MutationBatch batch,
                           std::uint64_t* ticket,
                           std::uint32_t* queue_depth);

  PollStatus poll(std::uint64_t session_id, std::uint64_t ticket,
                  VerdictRecord* out);

  bool get_stats(std::uint64_t session_id, SessionSnapshot* out);

  /// Applies everything still queued for the session, then removes it.
  /// On success, *generation / *fingerprint (when non-null) receive the
  /// final state markers.
  bool close_session(std::uint64_t session_id,
                     std::uint64_t* generation = nullptr,
                     std::uint64_t* fingerprint = nullptr);

  /// Blocks until every admitted batch has been applied.
  void drain();

  std::size_t session_count() const;
  /// Batches admitted but not yet applied, across all sessions.
  std::size_t total_queue_depth() const {
    return pending_total_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any single session's pending depth.
  std::size_t max_queue_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

  /// The coalesced batches a session applied, in order (empty unless
  /// record_applied_batches); call after drain() for a complete list.
  std::vector<MutationBatch> applied_batches(std::uint64_t session_id) const;

  const SessionServerOptions& options() const { return options_; }

  // -- Wire surface. ----------------------------------------------------

  /// Decodes one request frame, executes it, and returns the encoded
  /// reply frame (ack, OVERLOADED, or ERROR).  Thread-safe: connections
  /// on different threads dispatch concurrently.
  std::vector<std::uint8_t> handle_frame(const Frame& frame);

 private:
  struct Lane;
  struct SessionState;

  std::shared_ptr<SessionState> find_session(std::uint64_t id) const;
  void push_ready(const std::shared_ptr<SessionState>& s);
  void lane_loop(int lane);
  void process(const std::shared_ptr<SessionState>& s);
  void note_applied(std::size_t batches);

  SessionServerOptions options_;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, Graph> graphs_;
  std::unordered_map<std::uint64_t, std::shared_ptr<SessionState>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::vector<std::unique_ptr<Lane>> lanes_;
  WorkerPool pool_;
  std::thread coordinator_;
  std::atomic<bool> stop_{false};

  std::atomic<std::size_t> pending_total_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;

  // Metric handles (registry-owned, stable addresses); null when
  // telemetry is off.
  obs::Counter* admitted_ = nullptr;
  obs::Counter* overloads_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* applies_ = nullptr;
  obs::LatencyHistogram* apply_hist_ = nullptr;
};

/// One in-process protocol connection: feed raw bytes, collect reply
/// frames.  Bad frames (bad version, oversized, malformed) produce ERROR
/// replies and the connection keeps decoding — the same damage-tolerant
/// loop the socket listener runs.
class LoopbackConnection {
 public:
  explicit LoopbackConnection(SessionServer& server,
                              std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : server_(&server), parser_(max_frame_bytes) {}

  /// Feeds bytes (any framing: partial frames buffer, multiple frames
  /// all dispatch) and returns the reply frames produced, in order.
  std::vector<std::vector<std::uint8_t>> feed(const std::uint8_t* data,
                                              std::size_t size);
  std::vector<std::vector<std::uint8_t>> feed(
      const std::vector<std::uint8_t>& bytes) {
    return feed(bytes.data(), bytes.size());
  }

 private:
  SessionServer* server_;
  FrameParser parser_;
};

}  // namespace lcp::server

#endif  // LCP_SERVER_SESSION_SERVER_HPP_
