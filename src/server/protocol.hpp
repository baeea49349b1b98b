// The session server's length-prefixed binary wire protocol.
//
// A frame is:
//
//   u32 length   (little-endian; byte count of everything after it)
//   u8  version  (kProtocolVersion)
//   u8  type     (MsgType)
//   ...payload   (length - 2 bytes, message-type specific)
//
// Six request types cover the service surface — SUBMIT_GRAPH,
// OPEN_SESSION, APPLY_DELTAS, POLL_VERDICT, GET_STATS, CLOSE — and every
// request gets exactly one reply frame: the matching ack, OVERLOADED
// (backpressure: the session's admission queue is full; retry later), or
// ERROR (with a stable numeric code).  Payloads are fixed-width
// little-endian scalars plus explicitly length-prefixed strings,
// BitStrings, graphs, and mutation batches, so the encoding is
// byte-identical across hosts and replayable from a capture.
//
// Decoding is incremental and damage-tolerant: FrameParser consumes an
// arbitrary byte stream (loopback hand-off or socket reads), yields one
// DecodeStatus per frame attempt, and *skips* bad frames — a bad version
// or an oversized announced length discards exactly that frame's bytes,
// so the connection survives and the server can answer with ERROR
// instead of hanging up.  A truncated length prefix is simply kNeedMore
// until more bytes (or EOF) arrive.
#ifndef LCP_SERVER_PROTOCOL_HPP_
#define LCP_SERVER_PROTOCOL_HPP_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "graph/graph.hpp"

namespace lcp::server {

inline constexpr std::uint8_t kProtocolVersion = 1;

/// Hard cap on the announced payload length (version + type + body).
/// Graphs at the bench scale (10^5 nodes) are ~3 MiB on the wire; 64 MiB
/// leaves headroom for 10^6-node submissions while bounding what a
/// malicious length prefix can make the server buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Message types.  Requests are low numbers, replies have the high bit
/// set; the pairing is fixed (SUBMIT_GRAPH -> GRAPH_ACK, ...).
enum class MsgType : std::uint8_t {
  // Requests.
  kSubmitGraph = 1,
  kOpenSession = 2,
  kApplyDeltas = 3,
  kPollVerdict = 4,
  kGetStats = 5,
  kClose = 6,
  // Replies.
  kGraphAck = 0x81,
  kSessionOpened = 0x82,
  kDeltasAccepted = 0x83,
  kVerdict = 0x84,
  kStats = 0x85,
  kClosed = 0x86,
  kOverloaded = 0x90,
  kError = 0x91,
};

const char* msg_type_name(MsgType type);

/// Stable error codes carried by ERROR replies.
enum class ErrorCode : std::uint16_t {
  kBadVersion = 1,
  kOversizedFrame = 2,
  kMalformedFrame = 3,
  kUnknownType = 4,
  kUnknownGraph = 5,
  kUnknownSession = 6,
  kBadRequest = 7,   ///< e.g. a scheme expression that failed to resolve
  kSessionClosed = 8,
  kApplyFailed = 9,  ///< the mutation batch threw inside apply()
};

// ---------------------------------------------------------------------------
// Byte-level primitives.

/// Appends little-endian scalars and length-prefixed aggregates to a
/// byte vector.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  ///< IEEE-754 bit pattern as u64

  void str(const std::string& s);       ///< u32 length + bytes
  void bits(const BitString& b);        ///< u32 bit count + packed bytes
  void graph(const Graph& g);           ///< node/edge table
  void batch(const MutationBatch& b);   ///< op list

 private:
  std::vector<std::uint8_t>* out_;
};

/// Sequential decoder over a payload span.  Reads past the end return
/// zero values and latch ok() == false (the BitReader idiom), so message
/// decoders validate once at the end instead of checking every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();

  std::string str();
  BitString bits();
  /// Rebuilds a graph; latches !ok() on inconsistent tables (duplicate
  /// ids, bad endpoints) as well as on overrun.
  Graph graph();
  MutationBatch batch();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when the payload was consumed exactly and nothing overran.
  bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  bool take(std::size_t n) {
    if (size_ - pos_ < n) {
      ok_ = false;
      pos_ = size_;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frames.

/// One decoded frame: version already validated, payload detached from
/// the connection buffer.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Wraps a finished payload in a length-prefixed frame.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

enum class DecodeStatus {
  kOk,         ///< a frame was produced
  kNeedMore,   ///< buffer holds a prefix of a frame (incl. a truncated
               ///< length prefix); feed more bytes
  kBadVersion, ///< frame skipped: version != kProtocolVersion
  kOversized,  ///< frame skipped: announced length exceeds the cap
  kMalformed,  ///< frame skipped: announced length too short for a header
};

/// Incremental frame decoder with skip-and-survive semantics for bad
/// frames.  feed() appends raw bytes; next() yields one status per frame
/// attempt.  Oversized frames are discarded without buffering: the
/// parser remembers how many announced bytes remain to swallow, so a
/// 64 MiB lie costs no allocation.
class FrameParser {
 public:
  explicit FrameParser(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t size);

  /// Attempts to decode the next frame from the buffered bytes.
  /// kOk fills *frame; the skip statuses consume the offending frame's
  /// bytes (as far as buffered — the rest is swallowed by later feeds)
  /// and report it once.
  DecodeStatus next(Frame* frame);

  std::size_t buffered() const { return buffer_.size(); }

 private:
  std::uint32_t max_frame_bytes_;
  std::deque<std::uint8_t> buffer_;
  std::uint64_t discard_remaining_ = 0;  // oversized-frame bytes to drop
};

// ---------------------------------------------------------------------------
// Messages.  Each struct encodes to a complete frame; decode() checks the
// frame type and returns false on any malformation (wrong type, overrun,
// trailing bytes, inconsistent tables).

struct SubmitGraphRequest {
  std::uint64_t graph_id = 0;
  Graph graph;
};
struct GraphAckReply {
  std::uint64_t graph_id = 0;
  std::uint32_t nodes = 0;
  std::uint32_t edges = 0;
};

struct OpenSessionRequest {
  std::uint64_t graph_id = 0;
  std::string scheme;   ///< registry expression ("leader-election", "a & b")
  std::string engine;   ///< make_engine spec; empty selects "incremental"
  bool maintain = false;
};
struct SessionOpenedReply {
  std::uint64_t session_id = 0;
};

struct ApplyDeltasRequest {
  std::uint64_t session_id = 0;
  MutationBatch batch;
};
struct DeltasAcceptedReply {
  std::uint64_t session_id = 0;
  std::uint64_t ticket = 0;     ///< poll key for this batch's verdict
  std::uint32_t queue_depth = 0;  ///< session queue depth after admission
};

struct PollVerdictRequest {
  std::uint64_t session_id = 0;
  std::uint64_t ticket = 0;
};
/// status: 0 = still pending, 1 = done, 2 = unknown ticket (never issued
/// or evicted from the bounded history), 3 = the apply threw.
struct VerdictReply {
  std::uint64_t session_id = 0;
  std::uint64_t ticket = 0;
  std::uint8_t status = 0;
  bool all_accept = false;
  std::uint32_t rejecting = 0;      ///< rejecting-centre count
  std::uint64_t generation = 0;     ///< tracker generation after the apply
  std::uint64_t fingerprint = 0;    ///< state fingerprint after the apply
  std::uint32_t coalesced = 0;      ///< client batches merged into the apply
};

struct GetStatsRequest {
  std::uint64_t session_id = 0;
};
struct StatsReply {
  std::uint64_t session_id = 0;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t batches = 0;
  std::uint64_t repaired = 0;
  std::uint64_t declined = 0;
  std::uint64_t reproves = 0;     ///< prover runs after a held proof rejected
  std::uint64_t verifies = 0;
  std::uint64_t spot_sampled = 0;
  std::uint64_t spot_skipped = 0;
  std::uint64_t spot_escalations = 0;
  double spot_miss_bound = 0.0;
  std::uint32_t queue_depth = 0;   ///< batches awaiting apply right now
};

struct CloseRequest {
  std::uint64_t session_id = 0;
};
struct ClosedReply {
  std::uint64_t session_id = 0;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
};

struct OverloadedReply {
  std::uint64_t session_id = 0;
  std::uint32_t queue_depth = 0;   ///< the full queue's depth
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
};

std::vector<std::uint8_t> encode(const SubmitGraphRequest& m);
std::vector<std::uint8_t> encode(const GraphAckReply& m);
std::vector<std::uint8_t> encode(const OpenSessionRequest& m);
std::vector<std::uint8_t> encode(const SessionOpenedReply& m);
std::vector<std::uint8_t> encode(const ApplyDeltasRequest& m);
std::vector<std::uint8_t> encode(const DeltasAcceptedReply& m);
std::vector<std::uint8_t> encode(const PollVerdictRequest& m);
std::vector<std::uint8_t> encode(const VerdictReply& m);
std::vector<std::uint8_t> encode(const GetStatsRequest& m);
std::vector<std::uint8_t> encode(const StatsReply& m);
std::vector<std::uint8_t> encode(const CloseRequest& m);
std::vector<std::uint8_t> encode(const ClosedReply& m);
std::vector<std::uint8_t> encode(const OverloadedReply& m);
std::vector<std::uint8_t> encode(const ErrorReply& m);

bool decode(const Frame& f, SubmitGraphRequest* m);
bool decode(const Frame& f, GraphAckReply* m);
bool decode(const Frame& f, OpenSessionRequest* m);
bool decode(const Frame& f, SessionOpenedReply* m);
bool decode(const Frame& f, ApplyDeltasRequest* m);
bool decode(const Frame& f, DeltasAcceptedReply* m);
bool decode(const Frame& f, PollVerdictRequest* m);
bool decode(const Frame& f, VerdictReply* m);
bool decode(const Frame& f, GetStatsRequest* m);
bool decode(const Frame& f, StatsReply* m);
bool decode(const Frame& f, CloseRequest* m);
bool decode(const Frame& f, ClosedReply* m);
bool decode(const Frame& f, OverloadedReply* m);
bool decode(const Frame& f, ErrorReply* m);

}  // namespace lcp::server

#endif  // LCP_SERVER_PROTOCOL_HPP_
