#include "obs/journal.hpp"

#include <algorithm>
#include <thread>

namespace lcp::obs {

const char* journal_kind_name(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kBatchApplied:
      return "batch_applied";
    case JournalEventKind::kRepairEmitted:
      return "repair_emitted";
    case JournalEventKind::kRepairDeclined:
      return "repair_declined";
    case JournalEventKind::kReprove:
      return "reprove";
    case JournalEventKind::kHaloExchange:
      return "halo_exchange";
    case JournalEventKind::kLaneDispatch:
      return "lane_dispatch";
    case JournalEventKind::kTransportSend:
      return "transport_send";
    case JournalEventKind::kVerdictFlip:
      return "verdict_flip";
    case JournalEventKind::kSpotSample:
      return "spot_sample";
    case JournalEventKind::kSpotEscalate:
      return "spot_escalate";
    case JournalEventKind::kServerAdmit:
      return "server_admit";
    case JournalEventKind::kServerCoalesce:
      return "server_coalesce";
    case JournalEventKind::kServerOverload:
      return "server_overload";
  }
  return "unknown";
}

std::string JournalEvent::to_json() const {
  std::string out = "{\"seq\":" + std::to_string(seq) +
                    ",\"ts_ns\":" + std::to_string(ts_ns) +
                    ",\"tid\":" + std::to_string(tid) + ",\"kind\":\"" +
                    journal_kind_name(kind) + "\"";
  if (label != nullptr) {
    out += ",\"label\":\"";
    out += label;
    out += "\"";
  }
  out += ",\"args\":{";
  bool first = true;
  for (const Arg& arg : args) {
    if (arg.key == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += arg.key;
    out += "\":" + std::to_string(arg.value);
  }
  out += "}}";
  return out;
}

// Each thread owns one ring per journal.  The ring mutex is uncontended
// in steady state (only the owning thread emits; dumps are rare), so an
// emit costs one uncontended lock plus a few stores.
struct Journal::Ring {
  std::mutex mutex;
  std::thread::id owner;
  int tid = 0;
  std::vector<JournalEvent> slots;  // capacity-bounded, circular
  std::uint64_t written = 0;        // total events through this ring
};

namespace {

// Process-unique journal ids, never reused: the thread-local ring cache
// below can then hold a stale pointer safely — a dead journal's id never
// matches again, so the pointer is never dereferenced.
std::atomic<std::uint64_t> g_next_journal_id{1};

struct RingCacheEntry {
  std::uint64_t journal_id = 0;
  Journal* journal = nullptr;
  void* ring = nullptr;
};

// A tiny per-thread LRU over (journal -> ring): threads typically emit
// into one or two journals, so the fast path is an id compare.
constexpr std::size_t kRingCacheSlots = 4;
thread_local std::array<RingCacheEntry, kRingCacheSlots> t_ring_cache{};

}  // namespace

Journal::Journal(std::size_t per_thread_capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(per_thread_capacity == 0 ? 1 : per_thread_capacity),
      journal_id_(g_next_journal_id.fetch_add(1, std::memory_order_relaxed)) {
}

Journal::~Journal() = default;

Journal::Ring* Journal::ring_for_current_thread() {
  for (RingCacheEntry& entry : t_ring_cache) {
    if (entry.journal_id == journal_id_) {
      return static_cast<Ring*>(entry.ring);
    }
  }
  // Slow path: find this thread's ring under the registry lock, then
  // cache it.
  const std::thread::id self = std::this_thread::get_id();
  Ring* ring = nullptr;
  {
    const std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& candidate : rings_) {
      if (candidate->owner == self) {
        ring = candidate.get();
        break;
      }
    }
  }
  if (ring == nullptr) {
    // Only this thread creates its own ring, so it can be built outside
    // the lock: an allocation that stalls (glibc consolidating an arena
    // that a torn-down server left full of freed chunks took 150 ms) then
    // stalls this thread only, not every other thread's first emit.  The
    // ring gets its whole capacity now, so emit() never reallocates.
    auto fresh = std::make_unique<Ring>();
    fresh->owner = self;
    fresh->slots.reserve(capacity_);
    const std::lock_guard<std::mutex> lock(rings_mutex_);
    fresh->tid = static_cast<int>(rings_.size());
    ring = fresh.get();
    rings_.push_back(std::move(fresh));
  }
  // Evict round-robin by seq of use: shift down, insert at front.
  for (std::size_t i = kRingCacheSlots - 1; i > 0; --i) {
    t_ring_cache[i] = t_ring_cache[i - 1];
  }
  t_ring_cache[0] = RingCacheEntry{journal_id_, this, ring};
  return ring;
}

void Journal::emit(
    JournalEventKind kind, const char* label,
    std::initializer_list<std::pair<const char*, std::int64_t>> args) {
  Ring* ring = ring_for_current_thread();
  JournalEvent event;
  event.kind = kind;
  event.label = label;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  std::size_t slot = 0;
  for (const auto& [key, value] : args) {
    if (slot >= JournalEvent::kMaxArgs) break;
    event.args[slot].key = key;
    event.args[slot].value = value;
    ++slot;
  }
  emitted_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(ring->mutex);
  event.tid = ring->tid;
  if (ring->slots.size() < capacity_) {
    ring->slots.push_back(std::move(event));
  } else {
    ring->slots[static_cast<std::size_t>(ring->written % capacity_)] =
        std::move(event);
  }
  ++ring->written;
}

std::vector<JournalEvent> Journal::events() const {
  std::vector<JournalEvent> merged;
  {
    const std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
      const std::lock_guard<std::mutex> ring_lock(ring->mutex);
      merged.insert(merged.end(), ring->slots.begin(), ring->slots.end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const JournalEvent& a, const JournalEvent& b) {
              return a.seq < b.seq;
            });
  return merged;
}

std::vector<JournalEvent> Journal::tail(std::size_t max_events) const {
  std::vector<JournalEvent> merged = events();
  if (merged.size() > max_events) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return merged;
}

std::string Journal::to_jsonl() const {
  std::string out;
  for (const JournalEvent& event : events()) {
    out += event.to_json();
    out += "\n";
  }
  return out;
}

std::size_t Journal::thread_count() const {
  const std::lock_guard<std::mutex> lock(rings_mutex_);
  return rings_.size();
}

}  // namespace lcp::obs
