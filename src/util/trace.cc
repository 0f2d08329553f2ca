#include "util/trace.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/resource_stats.h"

namespace mysawh {

namespace trace_internal {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_cost_attribution{false};
}  // namespace trace_internal

namespace {

/// The calling thread's buffer within the global tracer. The pointed-to
/// buffer is owned by the tracer and outlives every thread (the tracer is
/// leaked), so this cache is valid for the thread's whole lifetime.
thread_local Tracer::ThreadBuffer* tls_buffer = nullptr;

/// The calling thread's consumed CPU time in microseconds (0 when the
/// platform lacks CLOCK_THREAD_CPUTIME_ID).
int64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
#else
  return 0;
#endif
}

Counter* DroppedEventsCounter() {
  static Counter* const counter =
      MetricsRegistry::Global().GetCounter("trace.dropped_events");
  return counter;
}

}  // namespace

Tracer& Tracer::Global() {
  // Leaked intentionally: span destructors on worker threads may run
  // during static destruction.
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) buffer->events.clear();
  epoch_ = std::chrono::steady_clock::now();
  DroppedEventsCounter()->Reset();
  trace_internal::g_enabled.store(true, std::memory_order_release);
}

void Tracer::Disable() {
  trace_internal::g_enabled.store(false, std::memory_order_release);
}

void Tracer::SetCostAttribution(bool enabled) {
  trace_internal::g_cost_attribution.store(enabled,
                                           std::memory_order_release);
}

void Tracer::SetMaxEventsPerThread(size_t max_events) {
  max_events_per_thread_.store(max_events, std::memory_order_relaxed);
}

int64_t Tracer::dropped_events() const {
  return DroppedEventsCounter()->Value();
}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = next_tid_++;
    tls_buffer = buffers_.back().get();
  }
  return tls_buffer;
}

void Tracer::Record(TraceEvent event) {
  if (recent_enabled_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(recent_mutex_);
    if (recent_capacity_ > 0) {
      if (recent_names_.size() < recent_capacity_) {
        recent_names_.push_back(event.name);
      } else {
        recent_names_[recent_next_] = event.name;
      }
      recent_next_ = (recent_next_ + 1) % recent_capacity_;
    }
  }
  ThreadBuffer* buffer = BufferForThisThread();
  const size_t cap = max_events_per_thread_.load(std::memory_order_relaxed);
  if (cap != 0 && buffer->events.size() >= cap) {
    DroppedEventsCounter()->Increment();
    return;
  }
  event.tid = buffer->tid;
  buffer->events.push_back(std::move(event));
}

void Tracer::EnableRecentSpans(size_t capacity) {
  std::lock_guard<std::mutex> lock(recent_mutex_);
  recent_names_.clear();
  recent_capacity_ = capacity;
  recent_next_ = 0;
  recent_enabled_.store(capacity > 0, std::memory_order_relaxed);
}

std::vector<std::string> Tracer::RecentSpanNames() {
  std::lock_guard<std::mutex> lock(recent_mutex_);
  std::vector<std::string> names;
  names.reserve(recent_names_.size());
  // recent_next_ points at the oldest entry once the ring has wrapped.
  const size_t n = recent_names_.size();
  const size_t start = (n == recent_capacity_) ? recent_next_ : 0;
  for (size_t i = 0; i < n; ++i) {
    names.push_back(recent_names_[(start + i) % n]);
  }
  return names;
}

std::vector<TraceEvent> Tracer::Snapshot() {
  // Second element: position in the thread's buffer. RAII scoping records
  // inner spans before the outer spans that contain them, so when a
  // sub-microsecond outer/inner pair ties on both ts and dur, the later
  // buffer position is the enclosing span.
  std::vector<std::pair<TraceEvent, size_t>> indexed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      for (size_t i = 0; i < buffer->events.size(); ++i) {
        indexed.emplace_back(buffer->events[i], i);
      }
    }
  }
  // Start-time order, longest-first on ties, so enclosing spans precede
  // their children and equal-timing runs serialize identically.
  std::sort(indexed.begin(), indexed.end(),
            [](const std::pair<TraceEvent, size_t>& lhs,
               const std::pair<TraceEvent, size_t>& rhs) {
              const TraceEvent& a = lhs.first;
              const TraceEvent& b = rhs.first;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return lhs.second > rhs.second;
            });
  std::vector<TraceEvent> events;
  events.reserve(indexed.size());
  for (auto& entry : indexed) events.push_back(std::move(entry.first));
  return events;
}

size_t Tracer::event_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->events.size();
  return count;
}

std::string Tracer::ToJson() {
  const std::vector<TraceEvent> events = Snapshot();
  const long pid = static_cast<long>(::getpid());
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":\"mysawh\"}}";
  for (const TraceEvent& event : events) {
    os << ",\n{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
       << JsonEscape(event.cat) << "\",\"ph\":\"X\",\"ts\":" << event.ts_us
       << ",\"dur\":" << event.dur_us << ",\"pid\":" << pid
       << ",\"tid\":" << event.tid;
    // Captured costs join the user args inside the same "args" object so
    // the trace viewer shows them in the detail pane.
    std::string args = event.args;
    if (event.cpu_us >= 0) {
      if (!args.empty()) args += ",";
      args += "\"cpu_us\":" + std::to_string(event.cpu_us) +
              ",\"alloc_bytes\":" + std::to_string(event.alloc_bytes);
    }
    if (!args.empty()) os << ",\"args\":{" << args << "}";
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

Status Tracer::WriteJson(const std::string& path) {
  return WriteFileAtomic(path, ToJson(), "trace_write");
}

std::string Tracer::CostTableJson(int top_n) {
  struct NameCost {
    int64_t count = 0;
    int64_t cpu_us = 0;
    int64_t alloc_bytes = 0;
  };
  std::map<std::string, NameCost> by_name;
  for (const TraceEvent& event : Snapshot()) {
    if (event.cpu_us < 0) continue;
    NameCost& cost = by_name[event.name];
    ++cost.count;
    cost.cpu_us += event.cpu_us;
    cost.alloc_bytes += event.alloc_bytes > 0 ? event.alloc_bytes : 0;
  }
  if (by_name.empty()) return "";

  using Entry = std::pair<std::string, NameCost>;
  std::vector<Entry> entries(by_name.begin(), by_name.end());
  const auto render = [&entries, top_n](
                          std::ostringstream& os,
                          int64_t NameCost::*key) {
    // Descending on the key; the map iteration order already breaks ties
    // by ascending name, and stable_sort preserves it.
    std::stable_sort(entries.begin(), entries.end(),
                     [key](const Entry& a, const Entry& b) {
                       return a.second.*key > b.second.*key;
                     });
    const int n = std::min<int>(top_n, static_cast<int>(entries.size()));
    for (int i = 0; i < n; ++i) {
      const Entry& e = entries[i];
      os << (i == 0 ? "" : ",") << "{\"name\":\"" << JsonEscape(e.first)
         << "\",\"count\":" << e.second.count
         << ",\"cpu_us\":" << e.second.cpu_us
         << ",\"alloc_bytes\":" << e.second.alloc_bytes << "}";
    }
  };
  std::ostringstream os;
  os << "{\"by_cpu\":[";
  render(os, &NameCost::cpu_us);
  os << "],\"by_bytes\":[";
  render(os, &NameCost::alloc_bytes);
  os << "]}";
  return os.str();
}

TraceSpan& TraceSpan::operator=(TraceSpan&& other) noexcept {
  Finish();
  active_ = other.active_;
  costed_ = other.costed_;
  name_ = std::move(other.name_);
  cat_ = other.cat_;
  start_us_ = other.start_us_;
  start_cpu_us_ = other.start_cpu_us_;
  start_alloc_bytes_ = other.start_alloc_bytes_;
  args_ = std::move(other.args_);
  other.active_ = false;
  return *this;
}

void TraceSpan::Begin(std::string name, const char* cat) {
  name_ = std::move(name);
  cat_ = cat;
  costed_ = CostAttributionEnabled();
  if (costed_) {
    start_cpu_us_ = ThreadCpuMicros();
    start_alloc_bytes_ = ThreadAllocBytes();
  }
  start_us_ = Tracer::Global().NowMicros();
}

void TraceSpan::Finish() {
  if (!active_) return;
  active_ = false;
  TraceEvent event;
  event.name = std::move(name_);
  event.cat = cat_;
  event.ts_us = start_us_;
  event.dur_us = Tracer::Global().NowMicros() - start_us_;
  if (costed_) {
    event.cpu_us = ThreadCpuMicros() - start_cpu_us_;
    event.alloc_bytes = ThreadAllocBytes() - start_alloc_bytes_;
    if (event.cpu_us < 0) event.cpu_us = 0;
  }
  event.args = std::move(args_);
  Tracer::Global().Record(std::move(event));
}

void TraceSpan::Arg(const char* key, int64_t value) {
  if (!active_) return;
  if (!args_.empty()) args_ += ",";
  args_ += "\"";
  args_ += JsonEscape(key);
  args_ += "\":";
  args_ += std::to_string(value);
}

}  // namespace mysawh
