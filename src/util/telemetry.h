#ifndef MYSAWH_UTIL_TELEMETRY_H_
#define MYSAWH_UTIL_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh {

/// Training-telemetry sink: named JSONL streams of per-iteration learning
/// diagnostics (train loss, held-out metric, split statistics), written as
/// a deterministic `mysawh-telemetry v1` artifact.
///
/// Discipline mirrors util/trace.h: telemetry is compiled into every build
/// and a *disabled* stream costs one relaxed atomic load and allocates
/// nothing, so `gbt::Trainer` stays instrumented permanently. Enabling
/// (CLI `--telemetry-out=<file>`, or Telemetry::Global().Enable() in
/// tests) starts a session; producers then open streams, append typed
/// JSONL lines, and deposit the finished stream into the global collector.
///
///   TelemetryStream stream;
///   if (TelemetryEnabled()) {
///     stream = Telemetry::Global().StartStream("final");
///     stream.Line("header", "\"rows\":1800");   // one JSONL line
///   }
///   ...
///   if (stream.active()) stream.Line("round", "\"round\":0,\"train\":...");
///
/// Streams buffer locally (no lock per line) and are deposited under the
/// collector mutex on Finish()/destruction. Serialization sorts streams
/// by label, so the artifact is byte-identical for any thread count as
/// long as labels are unique and the recorded values deterministic —
/// which training guarantees (see tests/gbt_determinism_test.cc).
///
/// Labels are hierarchical: TelemetryScope pushes thread-local context
/// segments ("QoL-DD-fi0", then "cv0"), and StartStream(kind) names the
/// stream "<context>/<kind>" ("QoL-DD-fi0/cv0/train"). Scopes nest with
/// '/' joins and cost nothing when telemetry is disabled.

namespace telemetry_internal {
/// Session on/off flag; namespace-scope atomic so the disabled fast path
/// is exactly one relaxed load with no init guard.
extern std::atomic<bool> g_enabled;
}  // namespace telemetry_internal

/// True when a telemetry session is active — the one-load fast path. Call
/// sites building dynamic labels or computing extra per-round metrics must
/// guard on this so the disabled mode costs nothing.
inline bool TelemetryEnabled() {
  return telemetry_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Deterministic JSON rendering of a double: shortest round-trip-exact
/// decimal form ("%.17g" tightened), "null" for NaN, and explicit
/// "1e9999"-free infinities rendered as +/-1e308 sentinels are never
/// produced — training metrics are finite or NaN.
std::string TelemetryDouble(double value);

/// Pushes one '/'-joined segment onto this thread's telemetry context for
/// the scope's lifetime. Free when telemetry is disabled at construction.
class TelemetryScope {
 public:
  explicit TelemetryScope(const std::string& segment);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  bool pushed_ = false;
};

/// The current thread's '/'-joined context ("" outside any scope).
std::string TelemetryContextLabel();

/// A buffered JSONL stream under construction. Move-only; inactive when
/// default-constructed or after Finish().
class TelemetryStream {
 public:
  TelemetryStream() = default;
  TelemetryStream(TelemetryStream&& other) noexcept { *this = std::move(other); }
  TelemetryStream& operator=(TelemetryStream&& other) noexcept;
  TelemetryStream(const TelemetryStream&) = delete;
  TelemetryStream& operator=(const TelemetryStream&) = delete;
  ~TelemetryStream() { Finish(); }

  bool active() const { return active_; }
  const std::string& label() const { return label_; }

  /// Appends one JSONL line `{"stream":"<label>","type":"<type>",<fields>}`.
  /// `fields` is a pre-rendered JSON fragment without braces ("" allowed).
  void Line(const char* type, const std::string& fields);

  /// Deposits the buffered lines into the global collector; the stream
  /// becomes inactive. Called by the destructor when still active.
  void Finish();

 private:
  friend class Telemetry;
  bool active_ = false;
  std::string label_;
  std::vector<std::string> lines_;
};

/// The process-wide stream collector.
class Telemetry {
 public:
  static Telemetry& Global();

  /// Starts a fresh session: clears previously collected streams. Call
  /// quiescent (no streams concurrently open).
  void Enable();
  /// Stops recording. Streams still open deposit on Finish (they belong
  /// to the session being closed).
  void Disable();
  bool enabled() const { return TelemetryEnabled(); }

  /// Opens a stream labelled "<thread context>/<kind>" (just `kind` when
  /// no scope is active). Returns an inactive stream when disabled.
  TelemetryStream StartStream(const std::string& kind);

  /// Number of deposited streams.
  size_t stream_count();

  /// The collected session as JSONL: one `{"schema":"mysawh-telemetry
  /// v1",...}` header line, then every stream's lines with streams in
  /// sorted label order. Call quiescent.
  std::string ToJsonl();

  /// ToJsonl() written atomically to `path`.
  Status WriteJsonl(const std::string& path);

 private:
  friend class TelemetryStream;
  Telemetry() = default;
  void Deposit(std::string label, std::vector<std::string> lines);

  std::mutex mutex_;
  struct Deposited {
    std::string label;
    std::vector<std::string> lines;
  };
  std::vector<Deposited> streams_;
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_TELEMETRY_H_
