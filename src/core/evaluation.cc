#include "core/evaluation.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "data/split.h"
#include "linear/linear_model.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace mysawh::core {

const char* ApproachName(Approach approach) {
  return approach == Approach::kDataDriven ? "DD" : "KD";
}

const char* ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kGbt:
      return "gbt";
    case ModelFamily::kLinear:
      return "linear";
    case ModelFamily::kGam:
      return "gam";
  }
  return "unknown";
}

Result<ModelFamily> ParseModelFamily(const std::string& name) {
  if (name == "gbt") return ModelFamily::kGbt;
  if (name == "linear") return ModelFamily::kLinear;
  if (name == "gam") return ModelFamily::kGam;
  return Status::InvalidArgument(
      "unknown model family: " + name + " (expected gbt, linear, or gam)");
}

double ExperimentResult::HeadlineMetric() const {
  return is_classification ? test_classification.accuracy
                           : test_regression.one_minus_mape;
}

gbt::GbtParams DefaultGbtParams(Outcome outcome, Approach approach) {
  gbt::GbtParams params;
  params.learning_rate = 0.07;
  params.num_trees = 300;
  params.subsample = 0.9;
  params.reg_lambda = 1.0;
  params.seed = 7;
  if (approach == Approach::kDataDriven) {
    params.max_depth = 4;
    params.colsample_bytree = 0.8;
    params.min_samples_leaf = 4;
  } else {
    // KD models see only the 1-2 index features.
    params.max_depth = 3;
    params.colsample_bytree = 1.0;
    params.min_samples_leaf = 8;
  }
  if (IsClassification(outcome)) {
    // Vanilla logistic boosting, as the paper's XGBoost setup: no class
    // weighting (GbtParams::scale_pos_weight is available for users who
    // want to trade precision for minority recall).
    params.objective = gbt::ObjectiveType::kLogistic;
  } else {
    params.objective = gbt::ObjectiveType::kSquaredError;
  }
  return params;
}

ModelFamilyConfig DefaultModelConfig(Outcome outcome, Approach approach,
                                     ModelFamily family) {
  ModelFamilyConfig config;
  config.family = family;
  config.gbt = DefaultGbtParams(outcome, approach);
  config.gam.objective = IsClassification(outcome)
                             ? gbt::ObjectiveType::kLogistic
                             : gbt::ObjectiveType::kSquaredError;
  return config;
}

Result<std::unique_ptr<model::Model>> TrainModel(
    const Dataset& train, Outcome outcome, const ModelFamilyConfig& config,
    const Dataset* validation) {
  switch (config.family) {
    case ModelFamily::kGbt: {
      MYSAWH_ASSIGN_OR_RETURN(
          gbt::GbtModel model,
          gbt::GbtModel::Train(train, config.gbt, validation));
      return std::unique_ptr<model::Model>(
          new gbt::GbtModel(std::move(model)));
    }
    case ModelFamily::kLinear: {
      // The linear family resolves to logistic regression when the outcome
      // is a classification task, so probabilities come out calibrated.
      if (IsClassification(outcome)) {
        MYSAWH_ASSIGN_OR_RETURN(
            linear::LogisticModel model,
            linear::LogisticModel::Train(train, config.linear_lambda));
        return std::unique_ptr<model::Model>(
            new linear::LogisticModel(std::move(model)));
      }
      MYSAWH_ASSIGN_OR_RETURN(
          linear::LinearModel model,
          linear::LinearModel::Train(train, config.linear_lambda));
      return std::unique_ptr<model::Model>(
          new linear::LinearModel(std::move(model)));
    }
    case ModelFamily::kGam: {
      // Force the objective to match the outcome type so predictions are
      // always on the scale the metrics expect.
      gam::GamParams params = config.gam;
      params.objective = IsClassification(outcome)
                             ? gbt::ObjectiveType::kLogistic
                             : gbt::ObjectiveType::kSquaredError;
      MYSAWH_ASSIGN_OR_RETURN(gam::GamModel model,
                              gam::GamModel::Train(train, params));
      return std::unique_ptr<model::Model>(
          new gam::GamModel(std::move(model)));
    }
  }
  return Status::InvalidArgument("unknown model family");
}

namespace {

/// Mean of per-fold regression metrics.
RegressionMetrics MeanRegression(const std::vector<RegressionMetrics>& folds) {
  RegressionMetrics mean;
  if (folds.empty()) return mean;
  for (const auto& f : folds) {
    mean.mae += f.mae;
    mean.rmse += f.rmse;
    mean.mape += f.mape;
    mean.n += f.n;
    mean.mape_skipped += f.mape_skipped;
  }
  const auto k = static_cast<double>(folds.size());
  mean.mae /= k;
  mean.rmse /= k;
  mean.mape /= k;
  mean.one_minus_mape = 1.0 - mean.mape;
  return mean;
}

/// Mean of per-fold classification metrics (ratios averaged, counts summed).
ClassificationMetrics MeanClassification(
    const std::vector<ClassificationMetrics>& folds) {
  ClassificationMetrics mean;
  if (folds.empty()) return mean;
  for (const auto& f : folds) {
    mean.tp += f.tp;
    mean.fp += f.fp;
    mean.tn += f.tn;
    mean.fn += f.fn;
    mean.accuracy += f.accuracy;
    mean.precision_true += f.precision_true;
    mean.precision_false += f.precision_false;
    mean.recall_true += f.recall_true;
    mean.recall_false += f.recall_false;
    mean.f1_true += f.f1_true;
    mean.f1_false += f.f1_false;
  }
  const auto k = static_cast<double>(folds.size());
  mean.accuracy /= k;
  mean.precision_true /= k;
  mean.precision_false /= k;
  mean.recall_true /= k;
  mean.recall_false /= k;
  mean.f1_true /= k;
  mean.f1_false /= k;
  return mean;
}

/// Family-specific hyperparameter validation.
Status ValidateConfig(const ModelFamilyConfig& config) {
  switch (config.family) {
    case ModelFamily::kGbt:
      return config.gbt.Validate();
    case ModelFamily::kGam:
      return config.gam.Validate();
    case ModelFamily::kLinear:
      if (config.linear_lambda < 0.0) {
        return Status::InvalidArgument("linear_lambda must be >= 0");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown model family");
}

}  // namespace

Result<ExperimentPlan> PlanExperiment(const Dataset& samples, Outcome outcome,
                                      Approach approach, bool with_fi,
                                      const ModelFamilyConfig& config,
                                      const EvalProtocol& protocol) {
  if (samples.num_rows() < 10) {
    return Status::InvalidArgument("experiment needs at least 10 samples");
  }
  if (protocol.cv_folds < 2) {
    return Status::InvalidArgument("cv_folds must be >= 2");
  }
  MYSAWH_RETURN_NOT_OK(ValidateConfig(config));

  ExperimentPlan plan;
  plan.outcome = outcome;
  plan.approach = approach;
  plan.with_fi = with_fi;
  plan.is_classification = IsClassification(outcome);
  plan.config = config;
  plan.protocol = protocol;

  Rng rng(protocol.seed);
  TrainTestIndices split;
  if (plan.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        split,
        StratifiedTrainTestSplit(samples.labels(), protocol.test_fraction,
                                 &rng));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        split, TrainTestSplit(samples.num_rows(), protocol.test_fraction,
                              &rng));
  }
  MYSAWH_ASSIGN_OR_RETURN(plan.train, samples.Take(split.train));
  MYSAWH_ASSIGN_OR_RETURN(plan.test, samples.Take(split.test));

  // K-fold CV on the train partition.
  if (plan.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        plan.folds,
        StratifiedKFoldSplit(plan.train.labels(), protocol.cv_folds, &rng));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        plan.folds, KFoldSplit(plan.train.num_rows(), protocol.cv_folds, &rng));
  }
  return plan;
}

namespace {

/// Scores `preds` against `labels` into the metrics block of `fit` that
/// matches the plan's outcome type.
Status ScoreFit(const ExperimentPlan& plan, const std::vector<double>& labels,
                const std::vector<double>& preds, FitResult* fit) {
  if (plan.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        fit->classification,
        ComputeClassificationMetrics(labels, preds,
                                     plan.protocol.decision_threshold));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(fit->regression,
                            ComputeRegressionMetrics(labels, preds));
  }
  return Status::Ok();
}

/// With telemetry on and a tree model, records the held-out learning curve
/// in the paper's headline metric (AUC for classification, MAPE for
/// regression) — the trainer's stream only carries the objective loss.
Status RecordEvalCurve(const ExperimentPlan& plan,
                       const gbt::GbtModel& model) {
  MYSAWH_ASSIGN_OR_RETURN(std::vector<std::vector<double>> stages,
                          model.PredictStaged(plan.test, 1));
  TelemetryStream eval = Telemetry::Global().StartStream("eval");
  if (!eval.active()) return Status::Ok();
  const char* metric = plan.is_classification ? "auc" : "mape";
  std::ostringstream header;
  header << "\"metric\":\"" << metric << "\",\"rows\":"
         << plan.test.num_rows() << ",\"stages\":" << stages.size();
  eval.Line("header", header.str());
  for (size_t stage = 0; stage < stages.size(); ++stage) {
    double value = std::numeric_limits<double>::quiet_NaN();
    if (plan.is_classification) {
      Result<double> auc = RocAuc(plan.test.labels(), stages[stage]);
      if (auc.ok()) value = *auc;
    } else {
      Result<RegressionMetrics> m =
          ComputeRegressionMetrics(plan.test.labels(), stages[stage]);
      if (m.ok()) value = m->mape;
    }
    std::ostringstream line;
    line << "\"round\":" << stage << ",\"value\":" << TelemetryDouble(value);
    eval.Line("eval", line.str());
  }
  eval.Finish();
  return Status::Ok();
}

}  // namespace

Result<FitResult> RunFit(const ExperimentPlan& plan, int fit) {
  if (fit < 0 || fit > plan.final_fit()) {
    return Status::InvalidArgument("fit index out of range");
  }
  FitResult result;
  if (fit < plan.final_fit()) {
    const Fold& fold = plan.folds[static_cast<size_t>(fit)];
    MYSAWH_ASSIGN_OR_RETURN(Dataset fold_train, plan.train.Take(fold.train));
    MYSAWH_ASSIGN_OR_RETURN(Dataset fold_valid,
                            plan.train.Take(fold.validation));
    // With telemetry on, the fold's held-out side is tracked per boosting
    // round (stream "<context>/cv<k>/train"). Early stopping is off in the
    // study protocol, so the trained model — and therefore every reported
    // metric — is bit-identical whether or not the validation set is
    // passed through.
    TelemetryScope fold_scope("cv" + std::to_string(fit));
    MYSAWH_ASSIGN_OR_RETURN(
        std::unique_ptr<model::Model> model,
        TrainModel(fold_train, plan.outcome, plan.config,
                   TelemetryEnabled() ? &fold_valid : nullptr));
    MYSAWH_ASSIGN_OR_RETURN(std::vector<double> preds,
                            model->PredictBatch(fold_valid));
    MYSAWH_RETURN_NOT_OK(ScoreFit(plan, fold_valid.labels(), preds, &result));
    return result;
  }
  // The final model on all train rows, evaluated on the held-out test rows.
  TelemetryScope final_scope("final");
  MYSAWH_ASSIGN_OR_RETURN(
      result.model,
      TrainModel(plan.train, plan.outcome, plan.config,
                 TelemetryEnabled() ? &plan.test : nullptr));
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> test_preds,
                          result.model->PredictBatch(plan.test));
  MYSAWH_RETURN_NOT_OK(ScoreFit(plan, plan.test.labels(), test_preds, &result));
  const auto* gbt_model = dynamic_cast<const gbt::GbtModel*>(result.model.get());
  if (TelemetryEnabled() && gbt_model != nullptr) {
    MYSAWH_RETURN_NOT_OK(RecordEvalCurve(plan, *gbt_model));
  }
  return result;
}

Result<ExperimentResult> FinishExperiment(
    ExperimentPlan plan, std::vector<Result<FitResult>> fits) {
  if (static_cast<int>(fits.size()) != plan.num_fits()) {
    return Status::InvalidArgument("one result per fit is required");
  }
  std::vector<RegressionMetrics> fold_reg;
  std::vector<ClassificationMetrics> fold_cls;
  for (int fit = 0; fit < plan.final_fit(); ++fit) {
    MYSAWH_RETURN_NOT_OK(fits[static_cast<size_t>(fit)].status());
    const FitResult& fold = *fits[static_cast<size_t>(fit)];
    if (plan.is_classification) {
      fold_cls.push_back(fold.classification);
    } else {
      fold_reg.push_back(fold.regression);
    }
  }
  MYSAWH_ASSIGN_OR_RETURN(
      FitResult final_fit,
      std::move(fits[static_cast<size_t>(plan.final_fit())]));

  ExperimentResult result;
  result.outcome = plan.outcome;
  result.approach = plan.approach;
  result.with_fi = plan.with_fi;
  result.is_classification = plan.is_classification;
  result.cv_regression = MeanRegression(fold_reg);
  result.cv_classification = MeanClassification(fold_cls);
  result.test_regression = final_fit.regression;
  result.test_classification = final_fit.classification;
  result.model = std::move(final_fit.model);
  result.train = std::move(plan.train);
  result.test = std::move(plan.test);
  return result;
}

}  // namespace mysawh::core
