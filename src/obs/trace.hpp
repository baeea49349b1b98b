// Phase-scoped trace spans, exportable as Chrome trace-event JSON.
//
// A TraceRecorder collects RAII Spans: open one around a phase
// (mutate, repair, dirty-BFS, verify, a shard lane's work...) and its
// wall-clock extent is recorded when the span closes.  Nesting is
// tracked per thread: a span opened while another span of the same
// recorder is active on the same thread becomes its child, so one
// VerificationSession::apply() yields the phase tree
//
//   session.apply
//   +- session.mutate
//   +- session.repair
//   +- session.verify
//      +- incremental.dirty_scan
//      +- incremental.verify
//
// to_chrome_json() renders the recorded spans as complete ("ph":"X")
// trace events that chrome://tracing and Perfetto load directly; the
// span/parent ids ride along in "args" so tools (and the span-shape
// tests) can rebuild the tree without relying on timestamp containment.
//
// Thread safety: span open is lock-free (ids from a relaxed atomic,
// nesting through a thread-local stack); span close appends the finished
// event under the recorder mutex.  Spans must close LIFO per thread —
// RAII scoping guarantees it.  A default-constructed Span (what
// maybe_span() returns when telemetry is disabled) is inert: no clock
// read, no allocation, no lock.
#ifndef LCP_OBS_TRACE_HPP_
#define LCP_OBS_TRACE_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lcp::obs {

class TraceRecorder {
 public:
  /// One closed span.  `parent` is the id of the enclosing span on the
  /// same thread (0 = root); ids are unique per recorder and assigned in
  /// open order.
  struct Event {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    int tid = 0;
    std::uint64_t start_ns = 0;  ///< since the recorder's epoch
    std::uint64_t dur_ns = 0;
  };

  /// RAII phase scope.  Move-only; a moved-from or default-constructed
  /// span is inert.  close() may be called early (idempotent).
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }

    void close();
    bool active() const { return recorder_ != nullptr; }
    std::uint64_t id() const { return id_; }

   private:
    friend class TraceRecorder;
    Span(TraceRecorder* recorder, const char* name);

    TraceRecorder* recorder_ = nullptr;
    const char* name_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Span* enclosing_ = nullptr;  // thread-local stack link
    std::uint64_t start_ns_ = 0;
  };

  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Opens a span; it records itself when destroyed (or close()d).
  /// `name` must outlive the span (string literals in practice).
  Span span(const char* name) { return Span(this, name); }

  /// Snapshot of the closed spans, in close order.
  std::vector<Event> events() const;
  std::size_t event_count() const;
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}); load via
  /// chrome://tracing or https://ui.perfetto.dev.  Events are sorted by
  /// (tid, start) for determinism.
  std::string to_chrome_json() const;

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace lcp::obs

#endif  // LCP_OBS_TRACE_HPP_
