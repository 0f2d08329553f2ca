#include "gbt/gbt_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/audit_log.h"
#include "core/drift_monitor.h"
#include "gbt/trainer.h"
#include "util/metrics.h"
#include "util/serialization.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::gbt {

Result<GbtModel> GbtModel::Train(const Dataset& train, const GbtParams& params,
                                 const Dataset* validation, TrainingLog* log) {
  // The one shape a trained forest can have that the flat encoding cannot
  // hold; bins are capped at kMaxBins, so the thresholds always fit.
  if (train.num_features() > kFlatMaxFeatures) {
    return Status::InvalidArgument(
        "training set has " + std::to_string(train.num_features()) +
        " features; the compiled forest holds at most " +
        std::to_string(kFlatMaxFeatures));
  }
  Trainer trainer(train, params);
  MYSAWH_ASSIGN_OR_RETURN(GbtModel model, trainer.Run(validation, log));
  MYSAWH_RETURN_NOT_OK(model.CompileFlat());
  return model;
}

uint64_t GbtModel::fingerprint() const {
  if (fingerprint_ == nullptr) return 0;
  std::call_once(fingerprint_->once, [this] {
    const std::string serialized = Serialize();
    fingerprint_->value =
        core::HashBytes(serialized.data(), serialized.size());
  });
  return fingerprint_->value;
}

Status GbtModel::CompileFlat() {
  // A (re)compile is the only time the forest can change, so it is where
  // the fingerprint of the old trees is dropped.
  fingerprint_ = std::make_shared<Fingerprint>();
  MYSAWH_ASSIGN_OR_RETURN(FlatForest compiled,
                          FlatForest::Compile(trees_, num_features()));
  flat_ = std::make_shared<const FlatForest>(std::move(compiled));
  return Status::Ok();
}

double GbtModel::PredictRowRaw(const double* row) const {
  return flat_->PredictRowRaw(row, base_score_);
}

double GbtModel::PredictRow(const double* row) const {
  const auto objective = MakeObjective(objective_type_);
  return objective->Transform(PredictRowRaw(row));
}

Result<std::vector<double>> GbtModel::PredictRaw(const Dataset& data) const {
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument(
        "Predict: dataset width " + std::to_string(data.num_features()) +
        " != model width " + std::to_string(num_features()));
  }
  TraceSpan span("gbt.predict", "predict");
  span.Arg("rows", data.num_rows());
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.rows");
  rows_counter->Increment(data.num_rows());
  static Counter* const flat_rows_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.flat_rows");
  flat_rows_counter->Increment(data.num_rows());
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  flat_->PredictRaw(data, base_score_, out.data());
  return out;
}

Result<std::vector<double>> GbtModel::Predict(const Dataset& data) const {
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> raw, PredictRaw(data));
  const auto objective = MakeObjective(objective_type_);
  DefaultPool().ParallelFor(static_cast<int64_t>(raw.size()), [&](int64_t i) {
    raw[static_cast<size_t>(i)] = objective->Transform(raw[static_cast<size_t>(i)]);
  });
  // Model-quality observability hooks: one relaxed load each when
  // disarmed, and always on the calling thread after the parallel loops,
  // so observation can never change what was computed.
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordPredictBatch(fingerprint(), data, raw);
  }
  if (core::DriftMonitoringEnabled()) {
    core::DriftMonitorRuntime::Global().ObserveBatch(data, raw);
  }
  return raw;
}

Result<std::vector<std::vector<double>>> GbtModel::PredictStaged(
    const Dataset& data, int stride) const {
  if (stride < 1) return Status::InvalidArgument("stride must be >= 1");
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument("PredictStaged: dataset width mismatch");
  }
  const auto num_stages = static_cast<size_t>(flat_->NumStages(stride));
  const auto rows = static_cast<size_t>(data.num_rows());
  std::vector<double> raw(num_stages * rows);
  flat_->PredictStages(data, base_score_, stride, raw.data());
  const auto objective = MakeObjective(objective_type_);
  std::vector<std::vector<double>> stages(num_stages,
                                          std::vector<double>(rows));
  for (size_t s = 0; s < num_stages; ++s) {
    for (size_t r = 0; r < rows; ++r) {
      stages[s][r] = objective->Transform(raw[s * rows + r]);
    }
  }
  return stages;
}

std::map<std::string, double> GbtModel::GainImportance() const {
  std::map<std::string, double> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += n.gain;
    }
  }
  return importance;
}

std::map<std::string, int64_t> GbtModel::SplitCountImportance() const {
  std::map<std::string, int64_t> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += 1;
    }
  }
  return importance;
}

std::map<std::string, double> GbtModel::CoverImportance() const {
  std::map<std::string, double> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += n.cover;
    }
  }
  return importance;
}

std::string GbtModel::Serialize() const {
  std::ostringstream os;
  os << "mysawh-gbt v1\n";
  os << "objective " << ObjectiveTypeName(objective_type_) << "\n";
  os << "base_score " << EncodeDouble(base_score_) << "\n";
  os << "best_iteration " << best_iteration_ << "\n";
  os << "num_features " << feature_names_.size() << "\n";
  for (const auto& name : feature_names_) os << "feature " << name << "\n";
  os << "num_trees " << trees_.size() << "\n";
  for (const auto& tree : trees_) {
    os << "tree " << tree.num_nodes() << "\n";
    for (int i = 0; i < tree.num_nodes(); ++i) {
      os << TreeNodeToText(tree.node(i)) << "\n";
    }
  }
  return os.str();
}

Result<GbtModel> GbtModel::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  auto next_line = [&]() -> Result<std::string> {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("model text truncated");
    }
    return line;
  };
  MYSAWH_ASSIGN_OR_RETURN(std::string header, next_line());
  if (header != "mysawh-gbt v1") {
    return Status::InvalidArgument("bad model header: " + header);
  }
  GbtModel model;
  MYSAWH_ASSIGN_OR_RETURN(std::string obj_line, next_line());
  {
    const auto parts = Split(obj_line, ' ');
    if (parts.size() != 2 || parts[0] != "objective") {
      return Status::InvalidArgument("bad objective line");
    }
    MYSAWH_ASSIGN_OR_RETURN(model.objective_type_,
                            ParseObjectiveType(parts[1]));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string base_line, next_line());
  {
    const auto parts = Split(base_line, ' ');
    if (parts.size() != 2 || parts[0] != "base_score") {
      return Status::InvalidArgument("bad base_score line");
    }
    MYSAWH_ASSIGN_OR_RETURN(model.base_score_, DecodeDouble(parts[1]));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string best_line, next_line());
  {
    const auto parts = Split(best_line, ' ');
    if (parts.size() != 2 || parts[0] != "best_iteration") {
      return Status::InvalidArgument("bad best_iteration line");
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t v, ParseInt64(parts[1]));
    model.best_iteration_ = static_cast<int>(v);
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string nf_line, next_line());
  int64_t num_features = 0;
  {
    const auto parts = Split(nf_line, ' ');
    if (parts.size() != 2 || parts[0] != "num_features") {
      return Status::InvalidArgument("bad num_features line");
    }
    MYSAWH_ASSIGN_OR_RETURN(num_features, ParseInt64(parts[1]));
    if (num_features < 0) {
      return Status::InvalidArgument("negative num_features");
    }
  }
  for (int64_t i = 0; i < num_features; ++i) {
    MYSAWH_ASSIGN_OR_RETURN(std::string fline, next_line());
    if (!StartsWith(fline, "feature ")) {
      return Status::InvalidArgument("bad feature line: " + fline);
    }
    model.feature_names_.push_back(fline.substr(8));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string nt_line, next_line());
  int64_t num_trees = 0;
  {
    const auto parts = Split(nt_line, ' ');
    if (parts.size() != 2 || parts[0] != "num_trees") {
      return Status::InvalidArgument("bad num_trees line");
    }
    MYSAWH_ASSIGN_OR_RETURN(num_trees, ParseInt64(parts[1]));
    if (num_trees < 0) return Status::InvalidArgument("negative num_trees");
  }
  for (int64_t t = 0; t < num_trees; ++t) {
    MYSAWH_ASSIGN_OR_RETURN(std::string tline, next_line());
    const auto tparts = Split(tline, ' ');
    if (tparts.size() != 2 || tparts[0] != "tree") {
      return Status::InvalidArgument("bad tree line: " + tline);
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t num_nodes, ParseInt64(tparts[1]));
    if (num_nodes < 1) return Status::InvalidArgument("empty tree");
    std::vector<TreeNode> nodes;
    // Reserve is bounded: a corrupted count must fail on the missing
    // lines below, not attempt a multi-exabyte allocation here.
    nodes.reserve(static_cast<size_t>(std::min<int64_t>(num_nodes, 4096)));
    for (int64_t i = 0; i < num_nodes; ++i) {
      MYSAWH_ASSIGN_OR_RETURN(std::string nline, next_line());
      MYSAWH_ASSIGN_OR_RETURN(TreeNode node, TreeNodeFromText(nline));
      nodes.push_back(node);
    }
    RegressionTree rebuilt = RegressionTree::FromNodes(std::move(nodes));
    MYSAWH_RETURN_NOT_OK(rebuilt.Validate(num_features));
    model.trees_.push_back(std::move(rebuilt));
  }
  // A tree beyond the declared count would otherwise be dropped silently.
  while (std::getline(is, line)) {
    if (!line.empty()) {
      return Status::InvalidArgument("unexpected line after the last tree: " +
                                     line);
    }
  }
  // Deserialized models predict through the same compiled kernel as
  // freshly trained ones (Serialize() does not carry the flat block).
  MYSAWH_RETURN_NOT_OK(model.CompileFlat());
  return model;
}

}  // namespace mysawh::gbt
