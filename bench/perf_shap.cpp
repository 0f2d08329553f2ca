/// google-benchmark microbenchmarks for exact TreeSHAP: per-row explanation
/// latency as a function of ensemble size and tree depth (the algorithm is
/// O(trees * leaves * depth^2)).

#include <benchmark/benchmark.h>

#include "data/dataset.h"
#include "explain/tree_shap.h"
#include "gbt/gbt_model.h"
#include "util/rng.h"

namespace {

using mysawh::Dataset;
using mysawh::Rng;
using mysawh::explain::TreeShap;
using mysawh::gbt::GbtModel;
using mysawh::gbt::GbtParams;

Dataset MakeData(int64_t rows, int64_t features, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int64_t f = 0; f < features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset ds = Dataset::Create(names);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<double> row(static_cast<size_t>(features));
    double y = 0;
    for (int64_t f = 0; f < features; ++f) {
      row[static_cast<size_t>(f)] = rng.Uniform(-1, 1);
      y += (f % 2 == 0 ? 0.8 : -0.4) * row[static_cast<size_t>(f)];
    }
    (void)ds.AddRow(row, y + rng.Normal(0, 0.05));
  }
  return ds;
}

/// Single-row Shap(): the flat recursion over one quantized row, the path
/// ExplainRow takes.
void BM_ShapByTrees(benchmark::State& state) {
  const Dataset train = MakeData(2000, 30, 1);
  GbtParams params;
  params.num_trees = static_cast<int>(state.range(0));
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(1, 30, 2);
  for (auto _ : state) {
    auto phi = shap.Shap(probe.row(0));
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_ShapByTrees)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMicrosecond);

void BM_ShapByDepth(benchmark::State& state) {
  const Dataset train = MakeData(4000, 30, 3);
  GbtParams params;
  params.num_trees = 50;
  params.max_depth = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(1, 30, 4);
  for (auto _ : state) {
    auto phi = shap.Shap(probe.row(0));
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_ShapByDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Batch SHAP: the per-row flat recursion over 10 and 100 rows.
void BM_ShapBatch(benchmark::State& state) {
  const Dataset train = MakeData(2000, 59, 5);  // paper-width feature space
  GbtParams params;
  params.num_trees = 100;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(state.range(0), 59, 6);
  for (auto _ : state) {
    auto matrix = shap.ShapBatch(probe);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() * probe.num_rows());
}
BENCHMARK(BM_ShapBatch)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
