#ifndef MYSAWH_CORE_AUDIT_LOG_H_
#define MYSAWH_CORE_AUDIT_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::core {

/// The prediction audit log (`mysawh-audit v1`): a deterministically
/// sampled, checksummed record of what the model predicted — per sampled
/// row the full feature vector, a content fingerprint, the model
/// fingerprint, the prediction, and (when SHAP runs) the top-k
/// attributions. `mysawh audit-replay` re-runs logged rows through the
/// current model and cmp-asserts the outputs, making the log the first
/// concrete instance of ROADMAP item 4's event-log architecture: a
/// replayable stream of inference events.
///
/// Determinism: sampling is a pure function of the row's content (an
/// FNV-1a key over its leading features, see AuditSampleKey), never of
/// arrival order or thread, and records are content-sorted at
/// serialization — so a run with `--threads 8` writes a byte-identical
/// log to `--threads 1` (tests/gbt_determinism_test.cc holds this).

struct AuditOptions {
  /// Keep one row in `sample_rate` (by sample key); 1 keeps every row.
  int64_t sample_rate = 16;
  /// SHAP attributions kept per sampled row (largest |value| first).
  int top_k = 3;
};

/// Lane-parallel FNV-1a over the row's doubles as 8-byte words (NaNs hash
/// by the canonical quiet-NaN pattern). The per-record `fp` field and the
/// integrity check of the feature list.
uint64_t HashRow(const double* row, int64_t num_features);

/// Bit pattern of one value with every NaN payload collapsed to the
/// canonical quiet NaN: any NaN means "missing", and JSON cannot preserve
/// payloads across the round-trip anyway.
inline uint64_t CanonicalFeatureBits(double value) {
  uint64_t bits;
  __builtin_memcpy(&bits, &value, sizeof(bits));
  if ((bits & 0x7fffffffffffffffull) > 0x7ff0000000000000ull) {
    bits = 0x7ff8000000000000ull;
  }
  return bits;
}

/// Finalizer applied to the sample key before the modulo sampling test:
/// FNV's final multiply feeds low bits only from low bits, so `key % rate`
/// over a raw short-input FNV is visibly biased. The avalanche (splitmix64
/// tail) mixes every input bit into the low bits.
inline uint64_t KeyAvalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

/// The sampling key: avalanched FNV-1a over the first min(4, num_features)
/// features. The sampling decision runs for EVERY predicted row, so the
/// key reads a bounded prefix (and is inline — the call is the predict
/// hook's innermost loop); the full-row fingerprint is only computed for
/// rows that pass. Still a pure function of row content — never of
/// arrival order — so sampling stays deterministic across thread counts.
/// The trade-off: rows identical in their leading features sample
/// together.
inline uint64_t AuditSampleKey(const double* row, int64_t num_features) {
  constexpr uint64_t kBasis = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  // Mirrors HashRow's lane structure for <= 4 words: lane f absorbs word
  // f, then the lanes fold in order (audit_log_test holds the identity
  // AuditSampleKey == KeyAvalanche(HashRow) over the prefix).
  uint64_t lanes[4] = {kBasis, kBasis ^ 0x9e3779b97f4a7c15ull,
                       kBasis ^ 0xc2b2ae3d27d4eb4full,
                       kBasis ^ 0x165667b19e3779f9ull};
  const int64_t n = num_features < 4 ? num_features : 4;
  for (int64_t f = 0; f < n; ++f) {
    lanes[f] = (lanes[f] ^ CanonicalFeatureBits(row[f])) * kPrime;
  }
  uint64_t hash = kBasis;
  for (const uint64_t lane : lanes) hash = (hash ^ lane) * kPrime;
  return KeyAvalanche(hash);
}

/// FNV-1a over raw bytes; `GbtModel::fingerprint` hashes the
/// serialized model with this so every audit record names the exact model
/// that produced it.
uint64_t HashBytes(const void* data, size_t size);

/// A fingerprint as the audit artifact spells it: 16 lowercase hex digits.
std::string FingerprintHex(uint64_t fingerprint);

/// True when the sample key selects the row at this sampling rate.
inline bool AuditSampled(uint64_t sample_key, int64_t sample_rate) {
  return sample_rate <= 1 ||
         (sample_key % static_cast<uint64_t>(sample_rate)) == 0;
}

/// One top-k SHAP attribution: feature index + value.
struct AuditShapEntry {
  int index = 0;
  double value = 0.0;
};

/// One logged inference event.
struct AuditRecord {
  std::string type;  ///< "predict" or "shap".
  uint64_t row_fp = 0;
  uint64_t model_fp = 0;
  std::vector<double> features;  ///< The full row; NaN = missing.
  double prediction = 0.0;       ///< Transformed prediction ("predict").
  std::vector<AuditShapEntry> shap;  ///< Top-k attributions ("shap").
};

/// True when the global log is armed — one relaxed atomic load, the only
/// cost `Predict`/`ShapBatch` pay on the common (disabled) path.
bool AuditEnabled();

/// The process-global audit collector. Hooked into `GbtModel::Predict`
/// and `TreeShap::ShapBatch` on the calling thread after the parallel
/// loops, so recording never perturbs the computation it observes.
class AuditLog {
 public:
  static AuditLog& Global();

  /// Arms the log with `options`, clearing previously buffered records.
  /// Fails when sample_rate < 1 or top_k < 1.
  Status Configure(AuditOptions options);
  /// Disarms; buffered records stay until the next Configure().
  void Disable();

  /// Records one batch of transformed predictions (sampled rows only).
  void RecordPredictBatch(uint64_t model_fp, const Dataset& data,
                          const std::vector<double>& predictions);
  /// Records one batch of SHAP rows; each sampled row keeps the top-k
  /// attributions by |value| (ties broken by feature index).
  void RecordShapBatch(uint64_t model_fp, const Dataset& data,
                       const std::vector<std::vector<double>>& shap_rows);

  int64_t record_count();

  /// The checksummed-envelope payload: a `mysawh-audit v1` header line
  /// followed by one JSON record per line, content-sorted. Deterministic
  /// for a given record population regardless of insertion order.
  std::string SerializePayload();

  /// WrapChecksummed(SerializePayload()) + atomic write.
  Status WriteToFile(const std::string& path);

 private:
  std::mutex mutex_;
  AuditOptions options_;
  /// Raw records; JSON rendering is deferred to SerializePayload() so the
  /// record path (inside `Predict`) never pays for double formatting.
  std::vector<AuditRecord> records_;
};

/// A parsed audit artifact.
struct AuditFile {
  int64_t sample_rate = 16;
  int top_k = 3;
  std::vector<AuditRecord> records;
};

/// Parses the unwrapped payload. DataLoss on a malformed header, a record
/// count mismatch, or an unparseable record line.
Result<AuditFile> ParseAuditPayload(const std::string& payload);

/// ReadFileChecksummed + ParseAuditPayload. Corrupt files surface as
/// DataLoss, never as crashes (the corruption-corpus test holds this).
Result<AuditFile> ReadAuditFile(const std::string& path);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_AUDIT_LOG_H_
