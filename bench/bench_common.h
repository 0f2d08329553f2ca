#ifndef MYSAWH_BENCH_BENCH_COMMON_H_
#define MYSAWH_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cohort/simulator.h"
#include "core/study.h"
#include "util/csv.h"
#include "util/status.h"

namespace mysawh::bench {

/// Aborts the bench binary with a message when `status` is not OK. Bench
/// harnesses are leaf executables, so failing fast with context is the
/// right behaviour.
inline void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::cerr << "bench failed: " << status.ToString() << "\n";
    std::exit(1);
  }
}

/// Unwraps a Result or aborts.
template <typename T>
T ValueOrDie(Result<T> result) {
  CheckOk(result.status().ok() ? Status::Ok() : result.status());
  if (!result.ok()) std::exit(1);  // unreachable; silences analyzers
  return std::move(result).value();
}

/// The standard cohort every bench reproduces the paper against.
inline cohort::Cohort MakePaperCohort(uint64_t seed = 42) {
  cohort::CohortConfig config;
  config.seed = seed;
  cohort::CohortSimulator simulator(config);
  return ValueOrDie(simulator.Generate());
}

/// Builds the aligned sample sets of one outcome with default QA options.
inline core::SampleSets MakeSampleSets(const cohort::Cohort& cohort,
                                       core::Outcome outcome) {
  auto builder = ValueOrDie(core::SampleSetBuilder::Create(
      &cohort, core::SampleBuildOptions{}));
  return ValueOrDie(builder.Build(outcome));
}

/// Plans one cell under the paper's protocol (EvalProtocol defaults).
inline core::ExperimentPlan PlanCell(const Dataset& samples,
                                     const core::StudyCellKey& key,
                                     const core::ModelFamilyConfig& config) {
  return ValueOrDie(core::PlanExperiment(samples, key.outcome, key.approach,
                                         key.with_fi, config,
                                         core::EvalProtocol{}));
}

/// PlanCell with the default GBT of the key's outcome and approach.
inline core::ExperimentPlan PlanCell(const Dataset& samples,
                                     const core::StudyCellKey& key) {
  return PlanCell(samples, key,
                  core::DefaultModelConfig(key.outcome, key.approach));
}

/// Computes `plans` in one RunPlans call on every hardware thread and
/// returns their cells in plan order; aborts on the first failure.
inline std::vector<core::ExperimentResult> RunCells(
    std::vector<core::ExperimentPlan> plans) {
  std::vector<core::ExperimentResult> cells;
  for (core::PlanRun& run : core::RunPlans(std::move(plans), 0)) {
    cells.push_back(ValueOrDie(std::move(run.result)));
  }
  return cells;
}

/// Writes a CSV next to the binary's working directory and reports it.
inline void WriteCsvReport(const std::string& path, const CsvDocument& doc) {
  CheckOk(WriteCsv(path, doc));
  std::cout << "[wrote " << path << "]\n";
}

}  // namespace mysawh::bench

#endif  // MYSAWH_BENCH_BENCH_COMMON_H_
