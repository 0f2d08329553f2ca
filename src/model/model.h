#ifndef MYSAWH_MODEL_MODEL_H_
#define MYSAWH_MODEL_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::model {

/// The polymorphic model layer every trained predictor implements — the
/// pluggable train -> serialize -> load -> predict stack the study runner,
/// the CLI, and any future serving layer build on.
///
/// On-disk format: a `kind: <name>` header line followed by the family's
/// own text payload. `Model::Deserialize` dispatches the payload to the
/// factory registered for that kind, so any trained artifact can be saved
/// with `SaveToFile` and reloaded with `LoadFromFile` without the caller
/// knowing its family. Files written before the registry existed (a bare
/// GBT payload with no `kind:` header) still load via a legacy fallback.
class Model {
 public:
  virtual ~Model() = default;

  /// Registry key of this family ("gbt", "linear", "logistic", "gam").
  virtual std::string Kind() const = 0;

  /// True when the model outputs P(y = 1) rather than a regression value.
  virtual bool IsClassifier() const = 0;

  /// Width of the feature space the model was trained on.
  virtual int64_t NumFeatures() const = 0;

  /// Names of the training features, in column order.
  virtual const std::vector<std::string>& FeatureNames() const = 0;

  /// Prediction (transformed scale) for one row of NumFeatures() doubles;
  /// NaN = missing.
  virtual double Predict(const double* row) const = 0;

  /// Batch prediction; fails when the dataset's width differs. The default
  /// implementation loops Predict over the rows; families override it when
  /// they have a faster batch path.
  virtual Result<std::vector<double>> PredictBatch(const Dataset& data) const;

  /// Serializes the family payload (no `kind:` header) to a line-oriented
  /// text format that round-trips exactly through the family's Deserialize.
  virtual std::string Serialize() const = 0;

  /// Full on-disk form: `kind: <Kind()>` header line + Serialize() payload.
  std::string SerializeWithKind() const;

  /// Writes SerializeWithKind() to `path` atomically (temp + fsync +
  /// rename) inside the checksummed `mysawh-artifact v1` envelope, so a
  /// crash mid-save cannot tear the file and corruption is detectable.
  Status SaveToFile(const std::string& path) const;

  /// Parses a `kind:`-headed model text (or a legacy header-less GBT
  /// payload), dispatching to the registered factory. Returns a clean
  /// Status — never crashes — on an unknown kind or malformed payload.
  static Result<std::unique_ptr<Model>> Deserialize(const std::string& text);

  /// Reads `path` and Deserializes it. Files carrying the checksummed
  /// envelope are verified first (corruption returns `DataLoss`); files
  /// written before the envelope existed load directly.
  static Result<std::unique_ptr<Model>> LoadFromFile(const std::string& path);
};

/// Factory parsing one family's payload (the text after the `kind:` line).
using ModelFactory =
    std::function<Result<std::unique_ptr<Model>>(const std::string& payload)>;

/// Registers `factory` under `kind`; later registrations replace earlier
/// ones (latest wins), so tests can shadow a built-in.
void RegisterModelFactory(const std::string& kind, ModelFactory factory);

/// Registers the built-in families (gbt, linear, logistic, gam). Called
/// lazily by Deserialize; idempotent and thread-safe.
void EnsureBuiltinFamiliesRegistered();

}  // namespace mysawh::model

#endif  // MYSAWH_MODEL_MODEL_H_
