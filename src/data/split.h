#ifndef MYSAWH_DATA_SPLIT_H_
#define MYSAWH_DATA_SPLIT_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace mysawh {

/// Row indices of a train/test partition.
struct TrainTestIndices {
  std::vector<int64_t> train;
  std::vector<int64_t> test;
};

/// Shuffled train/test split: `test_fraction` of the n rows go to test.
/// Requires n > 0 and test_fraction in (0, 1); both resulting parts are
/// guaranteed non-empty.
Result<TrainTestIndices> TrainTestSplit(int64_t n, double test_fraction,
                                        Rng* rng);

/// Shuffled train/test split preserving class proportions on both sides.
/// `labels` must be integral class ids; every class with at least 2 members
/// contributes to both sides.
Result<TrainTestIndices> StratifiedTrainTestSplit(
    const std::vector<double>& labels, double test_fraction, Rng* rng);

/// One fold of a cross-validation: rows used for training and validation.
struct Fold {
  std::vector<int64_t> train;
  std::vector<int64_t> validation;
};

/// Standard shuffled K-fold CV over n rows. Requires 2 <= k <= n.
Result<std::vector<Fold>> KFoldSplit(int64_t n, int k, Rng* rng);

/// Stratified K-fold for binary/integer labels: each fold's validation set
/// preserves class proportions (used for the imbalanced Falls outcome).
Result<std::vector<Fold>> StratifiedKFoldSplit(
    const std::vector<double>& labels, int k, Rng* rng);

}  // namespace mysawh

#endif  // MYSAWH_DATA_SPLIT_H_
