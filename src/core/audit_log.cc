#include "core/audit_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mysawh::core {
namespace {

std::atomic<bool> g_audit_enabled{false};

constexpr char kAuditSchema[] = "mysawh-audit v1";

Result<uint64_t> ParseHexU64(const std::string& text) {
  if (text.empty() || text.size() > 16) {
    return Status::DataLoss("audit: malformed fingerprint '" + text + "'");
  }
  uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return Status::DataLoss("audit: malformed fingerprint '" + text + "'");
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  return value;
}

/// JSON serialization is deferred to SerializePayload(): the record path
/// runs inside `Predict`, where a shortest-round-trip double rendering
/// per feature would dominate the prediction itself.
std::string RecordJson(const AuditRecord& record) {
  std::string out = "{\"type\":\"";
  out += record.type;
  out += "\",\"fp\":\"";
  out += FingerprintHex(record.row_fp);
  out += "\",\"model\":\"";
  out += FingerprintHex(record.model_fp);
  out += "\",\"features\":[";
  for (size_t f = 0; f < record.features.size(); ++f) {
    if (f > 0) out += ',';
    out += TelemetryDouble(record.features[f]);
  }
  out += ']';
  if (record.type == "predict") {
    out += ",\"prediction\":";
    out += TelemetryDouble(record.prediction);
  } else {
    out += ",\"shap\":[";
    for (size_t i = 0; i < record.shap.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"i\":";
      out += std::to_string(record.shap[i].index);
      out += ",\"v\":";
      out += TelemetryDouble(record.shap[i].value);
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace

uint64_t HashRow(const double* row, int64_t num_features) {
  // FNV-1a over the doubles as 8-byte words, in four interleaved lanes so
  // the multiply latency chains overlap — this runs for EVERY predicted
  // row while the log is armed, and the serial chain of a single lane
  // would cost more than the budgeted audit overhead on wide data. The
  // lanes are folded in a fixed order, so the result is a pure function
  // of the canonicalized bytes.
  constexpr uint64_t kBasis = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t lanes[4] = {kBasis, kBasis ^ 0x9e3779b97f4a7c15ull,
                       kBasis ^ 0xc2b2ae3d27d4eb4full,
                       kBasis ^ 0x165667b19e3779f9ull};
  int64_t f = 0;
  for (; f + 4 <= num_features; f += 4) {
    lanes[0] = (lanes[0] ^ CanonicalFeatureBits(row[f + 0])) * kPrime;
    lanes[1] = (lanes[1] ^ CanonicalFeatureBits(row[f + 1])) * kPrime;
    lanes[2] = (lanes[2] ^ CanonicalFeatureBits(row[f + 2])) * kPrime;
    lanes[3] = (lanes[3] ^ CanonicalFeatureBits(row[f + 3])) * kPrime;
  }
  for (; f < num_features; ++f) {
    lanes[f & 3] = (lanes[f & 3] ^ CanonicalFeatureBits(row[f])) * kPrime;
  }
  uint64_t hash = kBasis;
  for (const uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  return hash;
}

uint64_t HashBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

bool AuditEnabled() {
  return g_audit_enabled.load(std::memory_order_relaxed);
}

AuditLog& AuditLog::Global() {
  static AuditLog* const log = new AuditLog();
  return *log;
}

Status AuditLog::Configure(AuditOptions options) {
  if (options.sample_rate < 1) {
    return Status::InvalidArgument("audit: sample rate must be >= 1");
  }
  if (options.top_k < 1) {
    return Status::InvalidArgument("audit: top-k must be >= 1");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  records_.clear();
  g_audit_enabled.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void AuditLog::Disable() {
  g_audit_enabled.store(false, std::memory_order_relaxed);
}

void AuditLog::RecordPredictBatch(uint64_t model_fp, const Dataset& data,
                                  const std::vector<double>& predictions) {
  if (!AuditEnabled()) return;
  if (static_cast<int64_t>(predictions.size()) != data.num_rows()) return;
  int64_t sample_rate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sample_rate = options_.sample_rate;
  }
  const int64_t width = data.num_features();
  // Chunked so the sampling sweep parallelizes on multicore machines yet
  // stays bit-exact for any worker count: chunk boundaries depend only on
  // the row count and chunks merge in index order. On a single core the
  // shared pool runs inline with no dispatch cost. The full-row fingerprint
  // is only computed for rows that pass the prefix-key sampling test.
  constexpr int64_t kChunk = 1024;
  const int64_t num_chunks = (data.num_rows() + kChunk - 1) / kChunk;
  std::vector<std::vector<AuditRecord>> chunks(static_cast<size_t>(num_chunks));
  DefaultPool().ParallelForChunks(
      data.num_rows(), kChunk, [&](int64_t chunk, int64_t begin, int64_t end) {
        std::vector<AuditRecord>& out = chunks[static_cast<size_t>(chunk)];
        for (int64_t r = begin; r < end; ++r) {
          const double* row = data.row(r);
          if (sample_rate > 1 &&
              !AuditSampled(AuditSampleKey(row, width), sample_rate)) {
            continue;
          }
          AuditRecord record;
          record.type = "predict";
          record.row_fp = HashRow(row, width);
          record.model_fp = model_fp;
          record.features.assign(row, row + width);
          record.prediction = predictions[static_cast<size_t>(r)];
          out.push_back(std::move(record));
        }
      });
  int64_t total = 0;
  for (const std::vector<AuditRecord>& chunk : chunks) {
    total += static_cast<int64_t>(chunk.size());
  }
  if (total == 0) return;
  static Counter* const sampled_counter =
      MetricsRegistry::Global().GetCounter("audit.records");
  sampled_counter->Increment(total);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::vector<AuditRecord>& chunk : chunks) {
    for (AuditRecord& record : chunk) {
      records_.push_back(std::move(record));
    }
  }
}

void AuditLog::RecordShapBatch(
    uint64_t model_fp, const Dataset& data,
    const std::vector<std::vector<double>>& shap_rows) {
  if (!AuditEnabled()) return;
  if (static_cast<int64_t>(shap_rows.size()) != data.num_rows()) return;
  int64_t sample_rate;
  int top_k;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sample_rate = options_.sample_rate;
    top_k = options_.top_k;
  }
  const int64_t width = data.num_features();
  // Same chunked, prefix-key-sampled sweep as RecordPredictBatch, so a
  // row's predict and shap records always sample together.
  constexpr int64_t kChunk = 1024;
  const int64_t num_chunks = (data.num_rows() + kChunk - 1) / kChunk;
  std::vector<std::vector<AuditRecord>> chunks(static_cast<size_t>(num_chunks));
  DefaultPool().ParallelForChunks(
      data.num_rows(), kChunk, [&](int64_t chunk, int64_t begin, int64_t end) {
        std::vector<AuditRecord>& out = chunks[static_cast<size_t>(chunk)];
        for (int64_t r = begin; r < end; ++r) {
          const double* row = data.row(r);
          if (sample_rate > 1 &&
              !AuditSampled(AuditSampleKey(row, width), sample_rate)) {
            continue;
          }
          const std::vector<double>& phi = shap_rows[static_cast<size_t>(r)];
          // Top-k by |value|, ties by feature index: a total order, so the
          // selection is deterministic.
          std::vector<AuditShapEntry> entries;
          const auto num_phi = static_cast<int64_t>(
              std::min<size_t>(phi.size(), static_cast<size_t>(width)));
          for (int64_t i = 0; i < num_phi; ++i) {
            entries.push_back(
                {static_cast<int>(i), phi[static_cast<size_t>(i)]});
          }
          std::sort(entries.begin(), entries.end(),
                    [](const AuditShapEntry& a, const AuditShapEntry& b) {
                      const double ma = std::fabs(a.value);
                      const double mb = std::fabs(b.value);
                      if (ma != mb) return ma > mb;
                      return a.index < b.index;
                    });
          if (entries.size() > static_cast<size_t>(top_k)) {
            entries.resize(static_cast<size_t>(top_k));
          }
          AuditRecord record;
          record.type = "shap";
          record.row_fp = HashRow(row, width);
          record.model_fp = model_fp;
          record.features.assign(row, row + width);
          record.shap = std::move(entries);
          out.push_back(std::move(record));
        }
      });
  int64_t total = 0;
  for (const std::vector<AuditRecord>& chunk : chunks) {
    total += static_cast<int64_t>(chunk.size());
  }
  if (total == 0) return;
  static Counter* const sampled_counter =
      MetricsRegistry::Global().GetCounter("audit.records");
  sampled_counter->Increment(total);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::vector<AuditRecord>& chunk : chunks) {
    for (AuditRecord& record : chunk) {
      records_.push_back(std::move(record));
    }
  }
}

int64_t AuditLog::record_count() {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(records_.size());
}

std::string AuditLog::SerializePayload() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Content sort: records are pure functions of (row, model, output), so
  // sorting by serialized text erases arrival order — the only thing a
  // thread count can change. Equal records are interchangeable.
  std::vector<std::string> sorted;
  sorted.reserve(records_.size());
  for (const AuditRecord& record : records_) {
    sorted.push_back(RecordJson(record));
  }
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{\"schema\":\"";
  out += kAuditSchema;
  out += "\",\"sample_rate\":";
  out += std::to_string(options_.sample_rate);
  out += ",\"top_k\":";
  out += std::to_string(options_.top_k);
  out += ",\"records\":";
  out += std::to_string(sorted.size());
  out += "}\n";
  for (const std::string& record : sorted) {
    out += record;
    out += '\n';
  }
  return out;
}

Status AuditLog::WriteToFile(const std::string& path) {
  return WriteFileChecksummed(path, SerializePayload());
}

Result<AuditFile> ParseAuditPayload(const std::string& payload) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    lines.push_back(payload.substr(start, end - start));
    start = end + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) {
    return Status::DataLoss("audit: empty payload");
  }

  auto header_or = ParseJson(lines[0]);
  if (!header_or.ok()) {
    return Status::DataLoss("audit: malformed header: " +
                            header_or.status().message());
  }
  const JsonValue& header = *header_or;
  if (!header.is_object() || header.StringOr("schema", "") != kAuditSchema) {
    return Status::DataLoss(
        "audit: missing or unknown schema (want \"mysawh-audit v1\")");
  }
  AuditFile file;
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  const std::optional<int64_t> sample_rate =
      JsonInteger(header.Find("sample_rate"), 1, kMaxInt64);
  const std::optional<int64_t> top_k =
      JsonInteger(header.Find("top_k"), 1, std::numeric_limits<int>::max());
  if (!sample_rate.has_value() || !top_k.has_value()) {
    return Status::DataLoss("audit: invalid header options");
  }
  file.sample_rate = *sample_rate;
  file.top_k = static_cast<int>(*top_k);
  const std::optional<int64_t> declared =
      JsonInteger(header.Find("records"), 0, kMaxInt64);
  if (!declared.has_value()) {
    return Status::DataLoss("audit: header lacks a whole record count");
  }
  if (*declared != static_cast<int64_t>(lines.size()) - 1) {
    return Status::DataLoss("audit: header declares " +
                            std::to_string(*declared) + " records, found " +
                            std::to_string(lines.size() - 1));
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    auto record_or = ParseJson(lines[i]);
    if (!record_or.ok()) {
      return Status::DataLoss("audit: malformed record " + std::to_string(i) +
                              ": " + record_or.status().message());
    }
    const JsonValue& value = *record_or;
    if (!value.is_object()) {
      return Status::DataLoss("audit: record " + std::to_string(i) +
                              " is not an object");
    }
    AuditRecord record;
    record.type = value.StringOr("type", "");
    if (record.type != "predict" && record.type != "shap") {
      return Status::DataLoss("audit: record " + std::to_string(i) +
                              " has unknown type '" + record.type + "'");
    }
    MYSAWH_ASSIGN_OR_RETURN(record.row_fp,
                            ParseHexU64(value.StringOr("fp", "")));
    MYSAWH_ASSIGN_OR_RETURN(record.model_fp,
                            ParseHexU64(value.StringOr("model", "")));
    const JsonValue* features = value.Find("features");
    if (features == nullptr || !features->is_array() ||
        features->array_items().empty()) {
      return Status::DataLoss("audit: record " + std::to_string(i) +
                              " lacks features");
    }
    for (const JsonValue& item : features->array_items()) {
      record.features.push_back(item.is_null() ? std::nan("")
                                               : item.number_value());
    }
    // The fingerprint doubles as an integrity check on the feature list:
    // a record whose features no longer hash to its fp is corrupt even
    // when the envelope CRC (recomputed by an attacker or a re-wrap)
    // passes.
    if (HashRow(record.features.data(),
                static_cast<int64_t>(record.features.size())) !=
        record.row_fp) {
      return Status::DataLoss("audit: record " + std::to_string(i) +
                              " fingerprint does not match its features");
    }
    if (record.type == "predict") {
      const JsonValue* prediction = value.Find("prediction");
      if (prediction == nullptr ||
          (!prediction->is_number() && !prediction->is_null())) {
        return Status::DataLoss("audit: record " + std::to_string(i) +
                                " lacks a prediction");
      }
      record.prediction = prediction->is_null() ? std::nan("")
                                                : prediction->number_value();
    } else {
      const JsonValue* shap = value.Find("shap");
      if (shap == nullptr || !shap->is_array()) {
        return Status::DataLoss("audit: record " + std::to_string(i) +
                                " lacks shap attributions");
      }
      for (const JsonValue& item : shap->array_items()) {
        if (!item.is_object()) {
          return Status::DataLoss("audit: record " + std::to_string(i) +
                                  " has a malformed shap entry");
        }
        const JsonValue* index = item.Find("i");
        const JsonValue* entry_value = item.Find("v");
        if (index == nullptr || !index->is_number() || entry_value == nullptr ||
            (!entry_value->is_number() && !entry_value->is_null())) {
          return Status::DataLoss("audit: record " + std::to_string(i) +
                                  " has a malformed shap entry");
        }
        const std::optional<int64_t> feature = JsonInteger(
            index, 0, static_cast<int64_t>(record.features.size()) - 1);
        if (!feature.has_value()) {
          return Status::DataLoss("audit: record " + std::to_string(i) +
                                  " shap index out of range");
        }
        AuditShapEntry entry;
        entry.index = static_cast<int>(*feature);
        entry.value = entry_value->is_null() ? std::nan("")
                                             : entry_value->number_value();
        record.shap.push_back(entry);
      }
      if (record.shap.size() > static_cast<size_t>(file.top_k)) {
        return Status::DataLoss("audit: record " + std::to_string(i) +
                                " exceeds the header's top_k");
      }
    }
    file.records.push_back(std::move(record));
  }
  return file;
}

Result<AuditFile> ReadAuditFile(const std::string& path) {
  MYSAWH_ASSIGN_OR_RETURN(std::string payload, ReadFileChecksummed(path));
  return ParseAuditPayload(payload);
}

}  // namespace mysawh::core
