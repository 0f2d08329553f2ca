#ifndef MYSAWH_CORE_EVALUATION_H_
#define MYSAWH_CORE_EVALUATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/outcomes.h"
#include "data/dataset.h"
#include "data/split.h"
#include "gam/gam_model.h"
#include "gbt/gbt_model.h"
#include "model/model.h"
#include "util/status.h"

namespace mysawh::core {

/// Which learning framework a result belongs to (Fig 3's two sides).
enum class Approach {
  kDataDriven,       ///< GBT on the raw PRO + activity features.
  kKnowledgeDriven,  ///< GBT on the manually built ICI (+ FI).
};
/// "DD" / "KD".
const char* ApproachName(Approach approach);

/// Which model family an experiment cell trains. The paper's pipeline uses
/// gradient boosting; the linear and GAM families run the same protocol for
/// baseline comparisons (cf. `bench/ablation_model_families`).
enum class ModelFamily {
  kGbt,     ///< Gradient-boosted trees (the paper's choice).
  kLinear,  ///< Ridge regression / logistic regression by outcome type.
  kGam,     ///< Cyclic-boosted generalized additive model.
};

/// "gbt" / "linear" / "gam".
const char* ModelFamilyName(ModelFamily family);
/// Inverse of ModelFamilyName; InvalidArgument on unknown names.
Result<ModelFamily> ParseModelFamily(const std::string& name);

/// Hyperparameters for one experiment cell, covering every model family.
/// Only the block matching `family` is consulted at training time.
struct ModelFamilyConfig {
  ModelFamily family = ModelFamily::kGbt;
  gbt::GbtParams gbt;
  gam::GamParams gam;
  double linear_lambda = 1.0;  ///< Ridge strength for the linear family.
};

/// Train/test and cross-validation protocol, mirroring the paper: standard
/// KFold CV on 80% of the samples and a test phase on the remaining 20%.
struct EvalProtocol {
  double test_fraction = 0.2;
  int cv_folds = 5;
  uint64_t seed = 1234;
  /// Classification probability cutoff.
  double decision_threshold = 0.5;
};

/// Everything produced by one experiment cell (one outcome x approach x
/// FI-usage): test metrics, CV-mean metrics, the final model, and the
/// train/test partitions (retained so SHAP analyses can run on exactly the
/// evaluation data).
///
/// Move-only: the trained model is held polymorphically.
struct ExperimentResult {
  Outcome outcome = Outcome::kQol;
  Approach approach = Approach::kDataDriven;
  bool with_fi = false;

  bool is_classification = false;
  RegressionMetrics test_regression;      ///< Valid when regression.
  ClassificationMetrics test_classification;  ///< Valid when classification.
  RegressionMetrics cv_regression;        ///< Fold means.
  ClassificationMetrics cv_classification;

  std::unique_ptr<model::Model> model;  ///< Trained on the 80% train side.
  Dataset train;
  Dataset test;

  /// The trained model as a GBT, or nullptr when another family was used.
  /// TreeSHAP and the staged-prediction analyses are tree-only and need the
  /// concrete type.
  const gbt::GbtModel* gbt_model() const {
    return dynamic_cast<const gbt::GbtModel*>(model.get());
  }

  /// The headline scalar of Fig 4: 1-MAPE for regression, accuracy for
  /// classification.
  double HeadlineMetric() const;
};

/// Default booster hyperparameters for one outcome/approach cell. KD models
/// see only 1-2 features and use shallower trees; Falls uses the logistic
/// objective with a class-imbalance weight.
gbt::GbtParams DefaultGbtParams(Outcome outcome, Approach approach);

/// Default hyperparameters for any family on one outcome/approach cell.
/// The GBT block always matches DefaultGbtParams so family == kGbt
/// reproduces the paper pipeline exactly.
ModelFamilyConfig DefaultModelConfig(Outcome outcome, Approach approach,
                                     ModelFamily family = ModelFamily::kGbt);

/// Trains one model of the configured family on `train`. The linear family
/// resolves to logistic regression for classification outcomes.
/// `validation`, when non-null, is tracked per boosting round by the GBT
/// family (for telemetry learning curves; other families ignore it) — it
/// never changes the trained model unless early stopping is configured.
Result<std::unique_ptr<model::Model>> TrainModel(
    const Dataset& train, Outcome outcome, const ModelFamilyConfig& config,
    const Dataset* validation = nullptr);

/// One experiment cell with its protocol resolved: the 80/20 partitions
/// and the K cross-validation folds, drawn from `protocol.seed` alone. Its
/// K + 1 fits (fold k for k < K, then the final fit) depend on nothing but
/// the plan, so they may run in any order and on any thread; RunFullStudy
/// schedules the fits of all twelve cells on one pool.
struct ExperimentPlan {
  Outcome outcome = Outcome::kQol;
  Approach approach = Approach::kDataDriven;
  bool with_fi = false;
  bool is_classification = false;
  ModelFamilyConfig config;
  EvalProtocol protocol;
  Dataset train;
  Dataset test;
  std::vector<Fold> folds;

  /// K + 1: every CV fold, then the final fit.
  int num_fits() const { return static_cast<int>(folds.size()) + 1; }
  /// Index of the final fit (on all train rows, evaluated on test).
  int final_fit() const { return static_cast<int>(folds.size()); }
};

/// What one fit of a plan produced. A CV fit carries its validation
/// metrics; the final fit carries the model and its test metrics.
struct FitResult {
  RegressionMetrics regression;          ///< Valid when regression.
  ClassificationMetrics classification;  ///< Valid when classification.
  std::unique_ptr<model::Model> model;   ///< The final fit only.
};

/// Validates the configuration, splits 80/20 (stratified for Falls) and
/// draws the K folds on the train side (pass SampleSets::dd, dd_fi, kd or
/// kd_fi; `approach`/`with_fi` are recorded as metadata).
Result<ExperimentPlan> PlanExperiment(const Dataset& samples, Outcome outcome,
                                      Approach approach, bool with_fi,
                                      const ModelFamilyConfig& config,
                                      const EvalProtocol& protocol);

/// Runs fit `fit` of `plan`: fold `fit` trains on the other folds and is
/// scored on its own; the final fit trains on all train rows and is scored
/// on the test partition. Thread-safe for distinct fits of one plan. With
/// telemetry on, the fit's streams are labelled `cv<k>/...` or `final/...`
/// under the caller's context.
Result<FitResult> RunFit(const ExperimentPlan& plan, int fit);

/// Assembles a cell from its plan and its fits in fit order: CV means over
/// the folds, the final model and its test metrics. Returns the first
/// failed fit's Status, in fit order.
Result<ExperimentResult> FinishExperiment(ExperimentPlan plan,
                                          std::vector<Result<FitResult>> fits);

/// Runs one experiment cell on a sample set: PlanExperiment, every fit in
/// order, FinishExperiment. K-fold cross-validates on the train side,
/// trains the final model on all train rows, and evaluates on the test
/// side.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const ModelFamilyConfig& config,
                                       const EvalProtocol& protocol);

/// GBT-only overload, kept for the paper pipeline's call sites.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const gbt::GbtParams& params,
                                       const EvalProtocol& protocol);

/// Convenience overload using DefaultGbtParams.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const EvalProtocol& protocol);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_EVALUATION_H_
