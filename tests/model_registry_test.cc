/// Tests of the model serialization registry: every built-in family must
/// round-trip through the base-layer file API, and unknown payloads must be
/// rejected with a clean Status.

#include "model/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "gam/gam_model.h"
#include "gbt/gbt_model.h"
#include "linear/linear_model.h"
#include "util/rng.h"

namespace mysawh::model {
namespace {

Dataset MakeRegressionData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"x0", "x1"});
  for (int64_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1, 1);
    const double x1 = rng.Uniform(-1, 1);
    EXPECT_TRUE(ds.AddRow({x0, x1}, x0 - 2 * x1 + rng.Normal(0, 0.05)).ok());
  }
  return ds;
}

Dataset MakeClassificationData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"x0", "x1"});
  for (int64_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1, 1);
    const double x1 = rng.Uniform(-1, 1);
    EXPECT_TRUE(ds.AddRow({x0, x1}, x0 + x1 > 0 ? 1.0 : 0.0).ok());
  }
  return ds;
}

/// One trained instance of every built-in family.
std::vector<std::unique_ptr<Model>> TrainAllFamilies() {
  const Dataset reg = MakeRegressionData(200, 5);
  const Dataset cls = MakeClassificationData(200, 6);
  std::vector<std::unique_ptr<Model>> models;
  gbt::GbtParams gbt_params;
  gbt_params.num_trees = 8;
  models.push_back(std::make_unique<gbt::GbtModel>(
      gbt::GbtModel::Train(reg, gbt_params).value()));
  models.push_back(std::make_unique<linear::LinearModel>(
      linear::LinearModel::Train(reg).value()));
  models.push_back(std::make_unique<linear::LogisticModel>(
      linear::LogisticModel::Train(cls).value()));
  gam::GamParams gam_params;
  gam_params.num_cycles = 4;
  models.push_back(std::make_unique<gam::GamModel>(
      gam::GamModel::Train(reg, gam_params).value()));
  return models;
}

TEST(ModelRegistryTest, EveryFamilyRoundTripsThroughFile) {
  const Dataset probe = MakeRegressionData(30, 7);
  for (const auto& model : TrainAllFamilies()) {
    const std::string path =
        ::testing::TempDir() + "/registry_" + model->Kind() + ".txt";
    ASSERT_TRUE(model->SaveToFile(path).ok()) << model->Kind();
    const auto loaded = Model::LoadFromFile(path).value();
    EXPECT_EQ(loaded->Kind(), model->Kind());
    EXPECT_EQ(loaded->NumFeatures(), model->NumFeatures());
    EXPECT_EQ(loaded->FeatureNames(), model->FeatureNames());
    EXPECT_EQ(loaded->IsClassifier(), model->IsClassifier());
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      EXPECT_DOUBLE_EQ(loaded->Predict(probe.row(r)),
                       model->Predict(probe.row(r)))
          << model->Kind() << " row " << r;
    }
    std::remove(path.c_str());
  }
}

TEST(ModelRegistryTest, PredictBatchMatchesRowPredictions) {
  const Dataset probe = MakeRegressionData(25, 8);
  for (const auto& model : TrainAllFamilies()) {
    const auto batch = model->PredictBatch(probe).value();
    ASSERT_EQ(batch.size(), static_cast<size_t>(probe.num_rows()));
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      EXPECT_DOUBLE_EQ(batch[static_cast<size_t>(r)],
                       model->Predict(probe.row(r)))
          << model->Kind();
    }
  }
}

TEST(ModelRegistryTest, UnknownKindIsRejectedCleanly) {
  const auto result = Model::Deserialize("kind: hal9000\nsome payload\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("hal9000"), std::string::npos);
}

TEST(ModelRegistryTest, EmptyAndGarbageInputsAreRejected) {
  EXPECT_FALSE(Model::Deserialize("").ok());
  EXPECT_FALSE(Model::Deserialize("kind: gbt\nnot a gbt payload").ok());
  EXPECT_FALSE(Model::LoadFromFile("/nonexistent/model.txt").ok());
}

TEST(ModelRegistryTest, LegacyHeaderlessGbtFilesStillLoad) {
  // Files written before the kind header start directly with the GBT
  // payload; Deserialize must fall back to the gbt factory.
  const Dataset reg = MakeRegressionData(120, 9);
  gbt::GbtParams params;
  params.num_trees = 5;
  const gbt::GbtModel gbt = gbt::GbtModel::Train(reg, params).value();
  const auto loaded = Model::Deserialize(gbt.Serialize()).value();
  EXPECT_EQ(loaded->Kind(), "gbt");
  for (int64_t r = 0; r < std::min<int64_t>(reg.num_rows(), 10); ++r) {
    EXPECT_DOUBLE_EQ(loaded->Predict(reg.row(r)), gbt.PredictRow(reg.row(r)));
  }
}

TEST(ModelRegistryTest, SerializeWithKindPrependsHeader) {
  for (const auto& model : TrainAllFamilies()) {
    const std::string text = model->SerializeWithKind();
    EXPECT_EQ(text.rfind("kind: " + model->Kind() + "\n", 0), 0u);
  }
}

}  // namespace
}  // namespace mysawh::model
