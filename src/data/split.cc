#include "data/split.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace mysawh {

Result<TrainTestIndices> TrainTestSplit(int64_t n, double test_fraction,
                                        Rng* rng) {
  if (n <= 1) return Status::InvalidArgument("TrainTestSplit needs n > 1");
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  std::vector<int64_t> indices(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
  rng->Shuffle(&indices);
  int64_t num_test = static_cast<int64_t>(
      std::llround(static_cast<double>(n) * test_fraction));
  num_test = std::max<int64_t>(1, std::min(num_test, n - 1));
  TrainTestIndices out;
  out.test.assign(indices.begin(), indices.begin() + num_test);
  out.train.assign(indices.begin() + num_test, indices.end());
  return out;
}

Result<TrainTestIndices> StratifiedTrainTestSplit(
    const std::vector<double>& labels, double test_fraction, Rng* rng) {
  if (labels.size() < 2) {
    return Status::InvalidArgument("StratifiedTrainTestSplit needs n > 1");
  }
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  std::map<int64_t, std::vector<int64_t>> strata;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (std::isnan(labels[i]) || labels[i] != std::floor(labels[i])) {
      return Status::InvalidArgument(
          "StratifiedTrainTestSplit labels must be integral class ids");
    }
    strata[static_cast<int64_t>(labels[i])].push_back(
        static_cast<int64_t>(i));
  }
  TrainTestIndices out;
  for (auto& [cls, rows] : strata) {
    (void)cls;
    rng->Shuffle(&rows);
    int64_t num_test = static_cast<int64_t>(std::llround(
        static_cast<double>(rows.size()) * test_fraction));
    // Classes with >= 2 members appear on both sides.
    if (rows.size() >= 2) {
      num_test = std::max<int64_t>(1, num_test);
      num_test = std::min<int64_t>(num_test,
                                   static_cast<int64_t>(rows.size()) - 1);
    } else {
      num_test = 0;
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      (static_cast<int64_t>(i) < num_test ? out.test : out.train)
          .push_back(rows[i]);
    }
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  if (out.train.empty() || out.test.empty()) {
    return Status::InvalidArgument(
        "StratifiedTrainTestSplit produced an empty side");
  }
  return out;
}

Result<std::vector<Fold>> KFoldSplit(int64_t n, int k, Rng* rng) {
  if (k < 2) return Status::InvalidArgument("KFold needs k >= 2");
  if (n < k) return Status::InvalidArgument("KFold needs n >= k");
  std::vector<int64_t> indices(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
  rng->Shuffle(&indices);
  std::vector<Fold> folds(static_cast<size_t>(k));
  for (int64_t i = 0; i < n; ++i) {
    const auto fold = static_cast<size_t>(i % k);
    folds[fold].validation.push_back(indices[static_cast<size_t>(i)]);
  }
  for (int f = 0; f < k; ++f) {
    for (int g = 0; g < k; ++g) {
      if (g == f) continue;
      const auto& v = folds[static_cast<size_t>(g)].validation;
      auto& train = folds[static_cast<size_t>(f)].train;
      train.insert(train.end(), v.begin(), v.end());
    }
  }
  return folds;
}

Result<std::vector<Fold>> StratifiedKFoldSplit(
    const std::vector<double>& labels, int k, Rng* rng) {
  if (k < 2) return Status::InvalidArgument("StratifiedKFold needs k >= 2");
  if (static_cast<int64_t>(labels.size()) < k) {
    return Status::InvalidArgument("StratifiedKFold needs n >= k");
  }
  std::map<int64_t, std::vector<int64_t>> strata;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (std::isnan(labels[i]) || labels[i] != std::floor(labels[i])) {
      return Status::InvalidArgument(
          "StratifiedKFold labels must be integral class ids");
    }
    strata[static_cast<int64_t>(labels[i])].push_back(
        static_cast<int64_t>(i));
  }
  std::vector<Fold> folds(static_cast<size_t>(k));
  // Deal each stratum's rows round-robin across folds at a stratum-specific
  // offset, so small strata do not always land in fold 0.
  int64_t offset = 0;
  for (auto& [cls, rows] : strata) {
    (void)cls;
    rng->Shuffle(&rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      const auto fold =
          static_cast<size_t>((static_cast<int64_t>(i) + offset) % k);
      folds[fold].validation.push_back(rows[i]);
    }
    ++offset;
  }
  for (int f = 0; f < k; ++f) {
    if (folds[static_cast<size_t>(f)].validation.empty()) {
      return Status::InvalidArgument(
          "StratifiedKFold produced an empty fold; reduce k");
    }
  }
  for (int f = 0; f < k; ++f) {
    for (int g = 0; g < k; ++g) {
      if (g == f) continue;
      const auto& v = folds[static_cast<size_t>(g)].validation;
      auto& train = folds[static_cast<size_t>(f)].train;
      train.insert(train.end(), v.begin(), v.end());
    }
  }
  return folds;
}

}  // namespace mysawh
