#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/error.h"
#include "util/faultpoint.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hebs::obs {

namespace trace_detail {

std::atomic<bool> g_enabled{false};

namespace {

struct TraceEvent {
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::int32_t arg;
  Span span;
};

/// One thread's flight-recorder ring.  Written only by the owning
/// thread; read by collect/write, which run while no recording thread
/// is active (the documented contract).
struct Ring {
  TraceEvent* events = nullptr;
  std::size_t capacity = 0;
  std::size_t cursor = 0;      ///< next write slot
  std::uint64_t total = 0;     ///< events ever recorded (wrap detection)
};

/// Whole-tracer state: ring directory plus the flat pre-sized event
/// storage every ring carves its slice from.  Allocated once by
/// start_tracing and reused across epochs; never freed (the record path
/// may hold a pointer with only relaxed ordering).
struct TracerState {
  std::vector<Ring> rings;
  std::vector<TraceEvent> storage;
  std::atomic<std::uint32_t> claimed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::int64_t t0_ns = 0;
};

std::atomic<TracerState*> g_state{nullptr};
/// Bumped on every start_tracing: forces threads to re-claim rings, so
/// stale thread-local pointers from a previous epoch are never written.
std::atomic<std::uint32_t> g_trace_epoch{0};
/// Serializes the cold control plane (start/stop/clear/collect/write).
hebs::util::Mutex g_control_mu;

thread_local Ring* t_ring = nullptr;
thread_local std::uint32_t t_ring_epoch = 0;

/// The calling thread's ring for the current epoch, claiming a slot on
/// first use.  Returns nullptr (and counts a drop) when slots are
/// exhausted or tracing was torn down.  Allocation-free.
Ring* thread_ring() noexcept {
  const std::uint32_t epoch = g_trace_epoch.load(std::memory_order_acquire);
  if (t_ring_epoch == epoch) return t_ring;  // claimed or denied already
  TracerState* st = g_state.load(std::memory_order_acquire);
  t_ring_epoch = epoch;
  t_ring = nullptr;
  if (st != nullptr) {
    const std::uint32_t slot =
        st->claimed.fetch_add(1, std::memory_order_relaxed);
    if (slot < st->rings.size()) t_ring = &st->rings[slot];
  }
  return t_ring;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_span(Span span, std::int64_t start_ns, std::int32_t arg) noexcept {
  const std::int64_t end_ns = now_ns();
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  Ring* ring = thread_ring();
  if (ring == nullptr || ring->capacity == 0) {
    TracerState* st = g_state.load(std::memory_order_relaxed);
    if (st != nullptr) st->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TracerState* st = g_state.load(std::memory_order_relaxed);
  ring->events[ring->cursor] = {start_ns - st->t0_ns, end_ns - start_ns, arg,
                                span};
  ring->cursor = ring->cursor + 1 == ring->capacity ? 0 : ring->cursor + 1;
  if (++ring->total > ring->capacity) {
    st->dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace trace_detail

namespace {

using trace_detail::g_control_mu;
using trace_detail::g_enabled;
using trace_detail::g_state;
using trace_detail::g_trace_epoch;
using trace_detail::Ring;
using trace_detail::TracerState;

#define HEBS_SPAN_NAME(e, name) name,
constexpr const char* kSpanNames[] = {HEBS_SPAN_TABLE(HEBS_SPAN_NAME)};
#undef HEBS_SPAN_NAME

}  // namespace

const char* span_name(Span s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kSpanCount ? kSpanNames[i] : "unknown";
}

void start_tracing(const TraceOptions& opts) {
  hebs::util::MutexLock lock(g_control_mu);
  if (g_enabled.load(std::memory_order_relaxed)) return;  // already active
  TracerState* st = g_state.load(std::memory_order_relaxed);
  const std::size_t threads = std::max<std::size_t>(opts.max_threads, 1);
  const std::size_t per_thread =
      std::max<std::size_t>(opts.events_per_thread, 16);
  if (st == nullptr || st->storage.size() < threads * per_thread) {
    // First start (or a bigger request): allocate the flat storage.
    // The previous state, if any, leaks by design — record_span may
    // still hold its pointer.
    auto* fresh = new TracerState;
    fresh->storage.resize(threads * per_thread);
    st = fresh;
    g_state.store(fresh, std::memory_order_release);
  }
  // Carve per-thread ring slices at the requested geometry (the epoch
  // bump below forces every thread to re-claim before its next record,
  // so no stale Ring pointer is ever written through).
  st->rings.assign(threads, Ring{});
  for (std::size_t i = 0; i < threads; ++i) {
    st->rings[i].events = st->storage.data() + i * per_thread;
    st->rings[i].capacity = per_thread;
  }
  st->claimed.store(0, std::memory_order_relaxed);
  st->dropped.store(0, std::memory_order_relaxed);
  st->t0_ns = trace_detail::now_ns();
  // New epoch: every thread re-claims before its first record.
  g_trace_epoch.fetch_add(1, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void stop_tracing() noexcept {
  g_enabled.store(false, std::memory_order_release);
}

void clear_trace() noexcept {
  hebs::util::MutexLock lock(g_control_mu);
  TracerState* st = g_state.load(std::memory_order_relaxed);
  if (st == nullptr) return;
  for (Ring& ring : st->rings) {
    ring.cursor = 0;
    ring.total = 0;
  }
  st->dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t dropped_spans() noexcept {
  TracerState* st = g_state.load(std::memory_order_acquire);
  return st == nullptr ? 0 : st->dropped.load(std::memory_order_relaxed);
}

std::vector<CollectedSpan> collect_trace() {
  hebs::util::MutexLock lock(g_control_mu);
  std::vector<CollectedSpan> out;
  TracerState* st = g_state.load(std::memory_order_acquire);
  if (st == nullptr) return out;
  const std::uint32_t claimed =
      std::min<std::uint32_t>(st->claimed.load(std::memory_order_relaxed),
                              static_cast<std::uint32_t>(st->rings.size()));
  for (std::uint32_t tid = 0; tid < claimed; ++tid) {
    const Ring& ring = st->rings[tid];
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            ring.total, static_cast<std::uint64_t>(ring.capacity)));
    // Oldest-first: a wrapped ring's oldest retained event sits at the
    // cursor; an unwrapped ring starts at 0.
    const std::size_t begin = ring.total > ring.capacity ? ring.cursor : 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto& ev = ring.events[(begin + i) % ring.capacity];
      out.push_back({ev.span, tid, ev.start_ns, ev.dur_ns, ev.arg});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedSpan& a, const CollectedSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents before children
            });
  return out;
}

void write_chrome_trace(const std::string& path) {
  // Trace-write fault point (an injected IoError behaves exactly like a
  // destination that vanished between create and write).
  hebs::util::fault::maybe_fail(hebs::util::fault::Point::kTraceIo);
  const auto spans = collect_trace();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw hebs::util::IoError("cannot open trace path for writing: " + path);
  }
  bool ok = std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f) >= 0;
  for (std::size_t i = 0; i < spans.size() && ok; ++i) {
    const CollectedSpan& s = spans[i];
    // Complete ("X") events; ts/dur in microseconds as chrome expects.
    ok = std::fprintf(
             f,
             "{\"name\":\"%s\",\"cat\":\"hebs\",\"ph\":\"X\",\"pid\":1,"
             "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%d}}%s\n",
             span_name(s.span), s.tid,
             static_cast<double>(s.start_ns) / 1000.0,
             static_cast<double>(s.dur_ns) / 1000.0, s.arg,
             i + 1 == spans.size() ? "" : ",") >= 0;
  }
  ok = ok && std::fputs("]}\n", f) >= 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) throw hebs::util::IoError("failed writing trace to " + path);
}

}  // namespace hebs::obs
