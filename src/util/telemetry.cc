#include "util/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/file_io.h"
#include "util/json.h"

namespace mysawh {

namespace telemetry_internal {
std::atomic<bool> g_enabled{false};
}  // namespace telemetry_internal

namespace {

/// The calling thread's context segments; joined with '/' for labels.
thread_local std::vector<std::string> t_context;

}  // namespace

std::string TelemetryDouble(double value) {
  if (std::isnan(value)) return "null";
  // Shortest decimal form that round-trips: try increasing precision until
  // the parse-back is bit-exact. Deterministic for a given bit pattern.
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buf;
}

TelemetryScope::TelemetryScope(const std::string& segment) {
  if (!TelemetryEnabled()) return;
  t_context.push_back(segment);
  pushed_ = true;
}

TelemetryScope::~TelemetryScope() {
  if (pushed_) t_context.pop_back();
}

std::string TelemetryContextLabel() {
  std::string label;
  for (const auto& segment : t_context) {
    if (!label.empty()) label += '/';
    label += segment;
  }
  return label;
}

TelemetryStream& TelemetryStream::operator=(TelemetryStream&& other) noexcept {
  if (this != &other) {
    Finish();
    active_ = other.active_;
    label_ = std::move(other.label_);
    lines_ = std::move(other.lines_);
    other.active_ = false;
  }
  return *this;
}

void TelemetryStream::Line(const char* type, const std::string& fields) {
  if (!active_) return;
  std::string line;
  line.reserve(fields.size() + label_.size() + 32);
  line += "{\"stream\":\"";
  line += JsonEscape(label_);
  line += "\",\"type\":\"";
  line += type;
  line += '"';
  if (!fields.empty()) {
    line += ',';
    line += fields;
  }
  line += '}';
  lines_.push_back(std::move(line));
}

void TelemetryStream::Finish() {
  if (!active_) return;
  active_ = false;
  Telemetry::Global().Deposit(std::move(label_), std::move(lines_));
}

Telemetry& Telemetry::Global() {
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

void Telemetry::Enable() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    streams_.clear();
  }
  telemetry_internal::g_enabled.store(true, std::memory_order_relaxed);
}

void Telemetry::Disable() {
  telemetry_internal::g_enabled.store(false, std::memory_order_relaxed);
}

TelemetryStream Telemetry::StartStream(const std::string& kind) {
  TelemetryStream stream;
  if (!TelemetryEnabled()) return stream;
  stream.active_ = true;
  const std::string context = TelemetryContextLabel();
  stream.label_ = context.empty() ? kind : context + '/' + kind;
  return stream;
}

void Telemetry::Deposit(std::string label, std::vector<std::string> lines) {
  std::lock_guard<std::mutex> lock(mutex_);
  streams_.push_back({std::move(label), std::move(lines)});
}

size_t Telemetry::stream_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.size();
}

std::string Telemetry::ToJsonl() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Sorted by label: deposit order depends on thread scheduling, the
  // artifact must not. Stable so identical labels (discouraged) at least
  // keep their lines contiguous.
  std::vector<const Deposited*> ordered;
  ordered.reserve(streams_.size());
  for (const auto& s : streams_) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Deposited* a, const Deposited* b) {
                     return a->label < b->label;
                   });
  std::ostringstream os;
  os << "{\"schema\":\"mysawh-telemetry v1\",\"streams\":" << ordered.size()
     << "}\n";
  for (const Deposited* stream : ordered) {
    for (const auto& line : stream->lines) os << line << "\n";
  }
  return os.str();
}

Status Telemetry::WriteJsonl(const std::string& path) {
  return WriteFileAtomic(path, ToJsonl(), "telemetry_write");
}

}  // namespace mysawh
