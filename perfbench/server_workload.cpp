// server-mixed: a SessionServer (2 lanes, telemetry and journal attached)
// serving wire frames over one LoopbackConnection from one generator
// thread.
//
// Set-up submits grid(30,30), opens 256 "bipartite" sessions without a
// maintainer (3:1 incremental:direct) over the wire, and applies one
// warm-up batch per session, so no cold first sweep lands inside a timed
// latency.  Batches are 3:1 four-label flips to the add/remove of one
// fixed chord that joins opposite colour classes, so every verdict must be
// ACCEPT.
//
//   open loop    batches are due at a fixed 2000/s; each request's latency
//                runs from its due time to the first poll that sees its
//                verdict.  A generator that falls behind its schedule
//                invalidates the run.
//   closed loop  64 batches stay in flight; throughput and per-batch
//                send-to-verdict latency come from this phase.
//
// Output checks: every ticket resolves, none fails or is refused, every
// verdict is ACCEPT, and each session's CLOSE fingerprint equals one local
// apply() of the concatenation of the batches it admitted (without a
// maintainer the proof is re-derived from the graph, so the state does not
// depend on how the server coalesced them).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"
#include "server/protocol.hpp"
#include "server/session_server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lcp::Graph;
using lcp::MutationBatch;
using lcp::VerificationSession;
namespace srv = lcp::server;

constexpr int kSide = 30;
constexpr int kSessions = 256;
constexpr int kInFlight = 64;
constexpr double kOpenRatePerS = 2000.0;
// Deployments per run; setup_s is their median (the first, on a cold heap,
// takes up to four times as long as the rest).
constexpr int kSetups = 7;
// Two lanes and the generator leave a core of a 4-core host spare.
constexpr int kLanes = 2;
constexpr std::uint64_t kGraphId = 1;
// Grid nodes (0,0) and (0,3): opposite colour classes, not adjacent.
constexpr int kChordU = 0;
constexpr int kChordV = 3;
// The open-loop generator has fallen behind its schedule when its median
// send is this late, or any send this late.
constexpr double kMaxMedianLagUs = 100.0;
constexpr double kMaxLagUs = 100000.0;

/// One client connection; every request gets exactly one reply frame.
class Client {
 public:
  explicit Client(srv::SessionServer& server) : conn_(server) {}

  srv::Frame roundtrip(const std::vector<std::uint8_t>& request) {
    const auto replies = conn_.feed(request);
    if (replies.size() != 1) {
      throw std::runtime_error("expected one reply frame, got " +
                               std::to_string(replies.size()));
    }
    parser_.feed(replies[0].data(), replies[0].size());
    srv::Frame frame;
    if (parser_.next(&frame) != srv::DecodeStatus::kOk) {
      throw std::runtime_error("undecodable reply frame");
    }
    return frame;
  }

 private:
  srv::LoopbackConnection conn_;
  srv::FrameParser parser_;
};

/// A request in flight: its ticket and the times it was due, sent, acked.
struct Pending {
  std::uint64_t ticket = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point acked;
  int span = -1;  ///< the request's root span (traced runs)
  Clock::time_point next_poll{};  ///< paced polling: not before this
};

struct Completion {
  Pending pending;
  Clock::time_point seen;
};

/// A deployed server with its sessions, and the client's bookkeeping.
struct Deployment {
  std::shared_ptr<lcp::obs::Telemetry> telemetry;
  std::unique_ptr<srv::SessionServer> server;
  std::unique_ptr<Client> client;  // declared after the server it refers to
  std::vector<std::uint64_t> session_ids;
  std::vector<bool> chord_present;
  std::vector<std::vector<MutationBatch>> admitted;
  std::vector<std::deque<Pending>> queues;
  std::vector<int> active;  ///< sessions with requests in flight
  std::vector<bool> is_active;
  std::size_t in_flight = 0;
};

struct Counters {
  std::uint64_t sends = 0;
  std::uint64_t refused = 0;         ///< OVERLOADED or ERROR replies
  std::uint64_t bad_verdicts = 0;    ///< failed applies, REJECTs, unknown
  std::uint64_t polls = 0;
  std::uint64_t resolved = 0;
  double request_bytes = 0;
};

std::uint64_t counter(const lcp::obs::MetricSnapshot& snap,
                      const char* name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const lcp::obs::MetricSnapshot::HistogramEntry* histogram(
    const lcp::obs::MetricSnapshot& snap, const char* name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

class LoadGenerator {
 public:
  LoadGenerator(Deployment* d, SpanRecorder* spans, Report* report)
      : d_(d), spans_(spans), report_(report) {}

  Counters counters;

  /// Admits one batch for session `s`; false when the server refused it.
  bool send(int s, MutationBatch batch, Clock::time_point due) {
    Pending p;
    p.due = due;
    p.sent = Clock::now();
    ++counters.sends;
    p.span = spans_->open("request", -1, 0);
    srv::ApplyDeltasRequest req;
    req.session_id = d_->session_ids[static_cast<std::size_t>(s)];
    req.batch = batch;
    const std::vector<std::uint8_t> bytes = spans_->wrap(
        "protocol.encode", p.span, 0, [&] { return srv::encode(req); });
    counters.request_bytes += static_cast<double>(bytes.size());
    const srv::Frame reply = spans_->wrap(
        "server.admit", p.span, 0, [&] { return d_->client->roundtrip(bytes); });
    p.acked = Clock::now();
    srv::DeltasAcceptedReply ack;
    if (reply.type != srv::MsgType::kDeltasAccepted || !srv::decode(reply, &ack)) {
      ++counters.refused;
      spans_->close(p.span);
      return false;
    }
    p.ticket = ack.ticket;
    tag(p.span, s, ack.ticket);
    d_->admitted[static_cast<std::size_t>(s)].push_back(std::move(batch));
    d_->queues[static_cast<std::size_t>(s)].push_back(p);
    if (!d_->is_active[static_cast<std::size_t>(s)]) {
      d_->is_active[static_cast<std::size_t>(s)] = true;
      d_->active.push_back(s);
    }
    ++d_->in_flight;
    return true;
  }

  /// Polls the oldest ticket of every session with requests in flight
  /// (verdicts resolve in admission order per session), appending the
  /// resolved ones to `done`.  `paced` skips a ticket until 1/16 of its age
  /// (at least 10 us) has passed since its last poll: the closed loop uses
  /// it so the generator does not spend the cores the lanes need on polls
  /// that cannot succeed yet, at a cost of at most 1/16 in latency
  /// resolution.
  void poll_round(std::vector<Completion>* done, bool paced = false) {
    for (std::size_t i = 0; i < d_->active.size();) {
      const int s = d_->active[i];
      auto& queue = d_->queues[static_cast<std::size_t>(s)];
      while (!queue.empty() && poll_head(s, &queue, done, paced)) {
      }
      if (queue.empty()) {
        d_->is_active[static_cast<std::size_t>(s)] = false;
        d_->active[i] = d_->active.back();
        d_->active.pop_back();
      } else {
        ++i;
      }
    }
  }

 private:
  /// Every span of one request carries the same id: session and ticket.
  static std::uint64_t request_id(int s, std::uint64_t ticket) {
    return (static_cast<std::uint64_t>(s) << 40) | ticket;
  }

  void tag(int span, int s, std::uint64_t ticket) {
    if (span < 0) return;
    const std::uint64_t id = request_id(s, ticket);
    spans_->set_request(span, id);
    for (int child = span + 1;
         child < static_cast<int>(spans_->spans().size()); ++child) {
      if (spans_->spans()[static_cast<std::size_t>(child)].parent == span) {
        spans_->set_request(child, id);
      }
    }
  }

  /// True when the head ticket resolved (and was popped).
  bool poll_head(int s, std::deque<Pending>* queue,
                 std::vector<Completion>* done, bool paced) {
    Pending& head = queue->front();
    if (paced && Clock::now() < head.next_poll) return false;
    srv::PollVerdictRequest req;
    req.session_id = d_->session_ids[static_cast<std::size_t>(s)];
    req.ticket = head.ticket;
    ++counters.polls;
    const srv::Frame reply = spans_->wrap(
        "server.poll", head.span, request_id(s, head.ticket), [&] {
      return d_->client->roundtrip(srv::encode(req));
    });
    srv::VerdictReply verdict;
    if (reply.type != srv::MsgType::kVerdict || !srv::decode(reply, &verdict)) {
      ++counters.refused;
      report_->fail("poll answered with a non-verdict frame");
    } else if (verdict.status == 0) {
      const Clock::time_point now = Clock::now();
      head.next_poll = now + std::max<Clock::duration>(
                                 std::chrono::microseconds(10),
                                 (now - head.sent) / 16);
      return false;  // still pending
    } else if (verdict.status != 1 || !verdict.all_accept) {
      ++counters.bad_verdicts;
      report_->fail("ticket " + std::to_string(head.ticket) +
                    " resolved with status " + std::to_string(verdict.status) +
                    (verdict.all_accept ? "" : " and a REJECT"));
    }
    const Clock::time_point seen = Clock::now();
    spans_->close(head.span);
    done->push_back(Completion{head, seen});
    ++counters.resolved;
    queue->pop_front();
    --d_->in_flight;
    return true;
  }

  Deployment* d_;
  SpanRecorder* spans_;
  Report* report_;
};

MutationBatch make_batch(std::mt19937& rng, Deployment& d, int s) {
  MutationBatch batch;
  if (rng() % 4 != 0) {
    for (int i = 0; i < 4; ++i) {
      batch.set_node_label(static_cast<int>(rng() % (kSide * kSide)),
                           rng() % 1024);
    }
    return batch;
  }
  const auto index = static_cast<std::size_t>(s);
  if (d.chord_present[index]) {
    batch.remove_edge(kChordU, kChordV);
  } else {
    batch.add_edge(kChordU, kChordV);
  }
  d.chord_present[index] = !d.chord_present[index];
  return batch;
}

template <typename Reply>
Reply expect_reply(Client& client, const std::vector<std::uint8_t>& request,
                   srv::MsgType type) {
  const srv::Frame frame = client.roundtrip(request);
  Reply reply;
  if (frame.type != type || !srv::decode(frame, &reply)) {
    throw std::runtime_error(std::string("set-up request answered with ") +
                             srv::msg_type_name(frame.type));
  }
  return reply;
}

/// Deploys the server, opens every session over the wire, and applies one
/// warm-up batch per session.
std::unique_ptr<Deployment> deploy(SpanRecorder* spans, Report* report) {
  auto d = std::make_unique<Deployment>();
  srv::SessionServerOptions options;
  options.lanes = kLanes;
  d->telemetry = std::make_shared<lcp::obs::Telemetry>();
  options.telemetry = d->telemetry;
  options.journal = std::make_shared<lcp::obs::Journal>();
  d->server = std::make_unique<srv::SessionServer>(options);
  d->client = std::make_unique<Client>(*d->server);

  srv::SubmitGraphRequest submit;
  submit.graph_id = kGraphId;
  submit.graph = lcp::gen::grid(kSide, kSide);
  expect_reply<srv::GraphAckReply>(*d->client, srv::encode(submit),
                                   srv::MsgType::kGraphAck);
  for (int s = 0; s < kSessions; ++s) {
    srv::OpenSessionRequest open;
    open.graph_id = kGraphId;
    open.scheme = "bipartite";
    // Sessions are pinned to lane (id % lanes) and ids count from 1, so
    // this spreads the direct sessions evenly over the lanes.
    open.engine = (s / 4) % 4 == 3 ? "direct" : "incremental";
    open.maintain = false;
    const auto opened = expect_reply<srv::SessionOpenedReply>(
        *d->client, srv::encode(open), srv::MsgType::kSessionOpened);
    d->session_ids.push_back(opened.session_id);
  }
  d->chord_present.assign(kSessions, false);
  d->admitted.resize(kSessions);
  d->queues.resize(kSessions);
  d->is_active.assign(kSessions, false);

  LoadGenerator gen(d.get(), spans, report);
  const Clock::time_point now = Clock::now();
  for (int s = 0; s < kSessions; ++s) {
    MutationBatch warm;
    warm.set_node_label(s % (kSide * kSide), 1);
    if (!gen.send(s, std::move(warm), now)) {
      throw std::runtime_error("warm-up batch refused");
    }
  }
  std::vector<Completion> done;
  while (d->in_flight > 0) gen.poll_round(&done);
  return d;
}

struct OpenLoop {
  std::vector<double> request_us;        ///< due time to verdict seen
  std::vector<double> ack_to_verdict_us;
  std::vector<double> lag_us;            ///< send time minus due time
};

/// Sends on a fixed schedule for `seconds`, polling between sends, then
/// waits for every verdict.  Latency runs from each request's due time.
OpenLoop open_loop(LoadGenerator& gen, Deployment& d, std::mt19937& rng,
                   double seconds) {
  OpenLoop out;
  std::uniform_int_distribution<int> pick(0, kSessions - 1);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / kOpenRatePerS));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  Clock::time_point next_due = start;
  std::vector<Completion> done;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (next_due < end && now >= next_due) {
      out.lag_us.push_back(ns_to_us(static_cast<double>(to_ns(now - next_due))));
      const int s = pick(rng);
      gen.send(s, make_batch(rng, d, s), next_due);
      next_due += interval;
      continue;
    }
    if (next_due >= end && d.in_flight == 0) break;
    gen.poll_round(&done);
    for (const Completion& c : done) {
      out.request_us.push_back(
          ns_to_us(static_cast<double>(to_ns(c.seen - c.pending.due))));
      out.ack_to_verdict_us.push_back(
          ns_to_us(static_cast<double>(to_ns(c.seen - c.pending.acked))));
    }
    done.clear();
  }
  return out;
}

struct ClosedLoop {
  std::vector<double> apply_us;  ///< send to verdict seen, completion order
  std::vector<double> window_rates;  ///< completions per second, per window
  std::vector<double> window_p50_us;  ///< apply p50 per window
  double completed = 0;
};

/// Keeps kInFlight batches outstanding for `seconds`; counts the verdicts
/// seen inside it, and their send-to-verdict times, in `windows` equal
/// time windows.
ClosedLoop closed_loop(LoadGenerator& gen, Deployment& d, std::mt19937& rng,
                       double seconds, int windows) {
  ClosedLoop out;
  std::uniform_int_distribution<int> pick(0, kSessions - 1);
  std::vector<std::vector<double>> per_window(
      static_cast<std::size_t>(windows));
  const Clock::time_point start = Clock::now();
  const std::int64_t length_ns = static_cast<std::int64_t>(seconds * 1e9);
  const Clock::time_point end = start + std::chrono::nanoseconds(length_ns);
  std::vector<Completion> done;
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now < end) {
      while (d.in_flight < kInFlight) {
        const int s = pick(rng);
        gen.send(s, make_batch(rng, d, s), Clock::now());
      }
    } else if (d.in_flight == 0) {
      break;
    }
    gen.poll_round(&done, /*paced=*/true);
    for (const Completion& c : done) {
      if (c.seen >= end) continue;
      const std::int64_t at = to_ns(c.seen - start);
      const double us =
          ns_to_us(static_cast<double>(to_ns(c.seen - c.pending.sent)));
      per_window[static_cast<std::size_t>(at * windows / length_ns)].push_back(us);
      out.apply_us.push_back(us);
    }
    done.clear();
  }
  for (const std::vector<double>& w : per_window) {
    out.completed += static_cast<double>(w.size());
    out.window_rates.push_back(static_cast<double>(w.size()) /
                               (seconds / windows));
    if (!w.empty()) out.window_p50_us.push_back(percentile(w, 50));
  }
  return out;
}

}  // namespace

void run_server_workload(const Options& options, Report* report,
                         SpanRecorder* spans) {
  const Clock::time_point run_start = Clock::now();
  // Set-up is untraced; its median over several deployments is reported.
  spans->set_enabled(false);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = deploy(spans, report);
    setup_s.push_back(static_cast<double>(to_ns(Clock::now() - t0)) / 1e9);
  }
  if (!report->correct) return;

  std::mt19937 rng(derive_seed(options.seed, 4));
  LoadGenerator gen(d.get(), spans, report);
  const lcp::obs::MetricSnapshot before = d->telemetry->metrics.snapshot();

  // An untraced run reports only closed-loop figures, so it gives the open
  // loop (still run for its checks) a fifth of the time.  A traced run
  // gives each phase half, traces the second half of the open loop and
  // alternate quarters of the closed loop; the latencies come from the
  // untraced parts, and the closed-loop rate ratio of the two kinds of
  // quarter is the tracing overhead.  The phases share what set-up left of
  // the run's seconds, less one second for the CLOSE checks.
  const double left_s = std::max(
      2.0, options.seconds - 1.0 -
               static_cast<double>(to_ns(Clock::now() - run_start)) / 1e9);
  const double open_s = left_s / (options.trace ? 2 : 5);
  const double closed_s = left_s - open_s;
  OpenLoop open =
      open_loop(gen, *d, rng, options.trace ? open_s / 2 : open_s);
  if (options.trace) {
    spans->set_enabled(true);
    const OpenLoop traced = open_loop(gen, *d, rng, open_s / 2);
    open.lag_us.insert(open.lag_us.end(), traced.lag_us.begin(),
                       traced.lag_us.end());
    open.ack_to_verdict_us.insert(open.ack_to_verdict_us.end(),
                                  traced.ack_to_verdict_us.begin(),
                                  traced.ack_to_verdict_us.end());
    spans->set_enabled(false);
  }
  ClosedLoop closed;
  std::vector<double> rate[2];  // [untraced, traced] quarters
  if (options.trace) {
    for (int quarter = 0; quarter < 4; ++quarter) {
      const bool traced = quarter % 2 == 1;
      spans->set_enabled(traced);
      const ClosedLoop q = closed_loop(gen, *d, rng, closed_s / 4, 1);
      rate[traced ? 1 : 0].push_back(q.window_rates[0]);
      if (!traced) {
        closed.apply_us.insert(closed.apply_us.end(), q.apply_us.begin(),
                               q.apply_us.end());
      }
    }
    spans->set_enabled(false);
  } else {
    closed = closed_loop(gen, *d, rng, closed_s,
                         static_cast<int>(closed_s + 0.5));  // ~1 s windows
  }
  const lcp::obs::MetricSnapshot after = d->telemetry->metrics.snapshot();

  // -- Output checks: CLOSE fingerprints against local applies. ---------
  const Counters& counters = gen.counters;
  report->attempted = counters.sends;
  report->failed = counters.refused + counters.bad_verdicts +
                   (counters.sends - counters.refused - counters.resolved);
  if (counters.refused > 0) {
    report->fail(std::to_string(counters.refused) + " requests were refused");
  }
  if (d->in_flight != 0) report->fail("tickets left unresolved");
  const Graph base = lcp::gen::grid(kSide, kSide);
  for (int s = 0; s < kSessions; ++s) {
    srv::CloseRequest close;
    close.session_id = d->session_ids[static_cast<std::size_t>(s)];
    const auto closed_reply = expect_reply<srv::ClosedReply>(
        *d->client, srv::encode(close), srv::MsgType::kClosed);
    MutationBatch all;
    for (const MutationBatch& b : d->admitted[static_cast<std::size_t>(s)]) {
      all.append(b);
    }
    VerificationSession local =
        VerificationSession::on(base).scheme("bipartite").engine("direct").build();
    const lcp::RunResult r = local.apply(all);
    if (!r.all_accept ||
        local.tracker().state_fingerprint() != closed_reply.fingerprint) {
      report->fail("session " + std::to_string(s) +
                   ": CLOSE fingerprint differs from a local apply of its "
                   "admitted batches");
    }
  }

  // -- Generator honesty: a generator that cannot keep its schedule (not
  // one briefly preempted; latency from due time already charges that to
  // the requests) invalidates the run.
  const double lag_p50 = percentile(open.lag_us, 50);
  const double lag_max = percentile(open.lag_us, 100);
  std::fprintf(stderr,
               "server-mixed: open loop %zu requests, generator lag p50 %.1f "
               "us, p99 %.1f us, max %.1f us; closed loop %zu batches\n",
               open.lag_us.size(), lag_p50, percentile(open.lag_us, 99),
               lag_max, closed.apply_us.size());
  if (lag_p50 > kMaxMedianLagUs || lag_max > kMaxLagUs) {
    report->fail("open-loop generator fell behind its schedule");
  }

  if (options.trace) {
    const auto totals = spans->totals();
    const auto mean_us = [&](const char* name) {
      const auto it = totals.find(name);
      if (it == totals.end() || it->second.count == 0) return 0.0;
      return it->second.self_ns / static_cast<double>(it->second.count) / 1000.0;
    };
    const auto count = [&](const char* name) -> std::uint64_t {
      const auto it = totals.find(name);
      return it == totals.end() ? 0 : it->second.count;
    };
    report->set("protocol.encode_us", mean_us("protocol.encode"), "us",
                count("protocol.encode"));
    report->set("server.admit_us", mean_us("server.admit"), "us",
                count("server.admit"));
    report->set("server.poll_us", mean_us("server.poll"), "us",
                count("server.poll"));
    const double admitted = static_cast<double>(
        counter(after, "server.admitted") - counter(before, "server.admitted"));
    const double applies = static_cast<double>(
        counter(after, "server.applies") - counter(before, "server.applies"));
    report->set("server.coalesce_ratio",
                applies > 0 ? admitted / applies : 0.0, "ratio",
                static_cast<std::uint64_t>(applies));
    const auto* h0 = histogram(before, "server.apply.latency");
    const auto* h1 = histogram(after, "server.apply.latency");
    if (h0 != nullptr && h1 != nullptr && h1->count > h0->count) {
      report->set("server.apply_mean_us",
                  static_cast<double>(h1->sum_ns - h0->sum_ns) /
                      static_cast<double>(h1->count - h0->count) / 1000.0,
                  "us", h1->count - h0->count);
    }
    report->set("server.polls_per_verdict",
                counters.resolved > 0
                    ? static_cast<double>(counters.polls) /
                          static_cast<double>(counters.resolved)
                    : 0.0,
                "count", counters.resolved);
    report->set("protocol.request_bytes",
                counters.sends > 0 ? counters.request_bytes /
                                         static_cast<double>(counters.sends)
                                   : 0.0,
                "bytes", counters.sends);
    report->set("server.ack_to_verdict_us", mean(open.ack_to_verdict_us),
                "us", open.ack_to_verdict_us.size());
    report->set("server.request_p50_us", percentile(open.request_us, 50), "us",
                open.request_us.size());
    report->set("server.request_p90_us", percentile(open.request_us, 90), "us",
                open.request_us.size());
    report->set("bench.apply_p90_us", percentile(closed.apply_us, 90), "us",
                closed.apply_us.size());
    report->set("bench.apply_p99_us", percentile(closed.apply_us, 99), "us",
                closed.apply_us.size());
    report->set("bench.gen_lag_p99_us", percentile(open.lag_us, 99), "us",
                open.lag_us.size());
    const double untraced_rate = median(rate[0]);
    const double traced_rate = median(rate[1]);
    report->set("bench.trace_overhead_pct",
                traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0
                                : 0.0,
                "%", 4);
    return;
  }

  const std::uint64_t n_apply = closed.apply_us.size();
  report->set("setup_s", median(setup_s), "s", setup_s.size());
  // Medians over the closed loop's one-second windows, which damp bursts
  // of interference from the rest of the host (see README.md).
  report->set("batches_per_s", median(closed.window_rates), "1/s", n_apply);
  report->set("apply_p50_us", median(closed.window_p50_us), "us", n_apply);
  report->set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
