#include "gbt/params.h"

#include <string>

#include "gbt/binning.h"

namespace mysawh::gbt {

Status GbtParams::Validate() const {
  if (num_trees < 1) return Status::InvalidArgument("num_trees must be >= 1");
  if (max_depth < 1) return Status::InvalidArgument("max_depth must be >= 1");
  if (!(learning_rate > 0.0) || learning_rate > 1.0) {
    return Status::InvalidArgument("learning_rate must be in (0, 1]");
  }
  if (min_child_weight < 0.0) {
    return Status::InvalidArgument("min_child_weight must be >= 0");
  }
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (reg_lambda < 0.0) {
    return Status::InvalidArgument("reg_lambda must be >= 0");
  }
  if (reg_alpha < 0.0) {
    return Status::InvalidArgument("reg_alpha must be >= 0");
  }
  if (gamma < 0.0) return Status::InvalidArgument("gamma must be >= 0");
  if (!(subsample > 0.0) || subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }
  if (!(colsample_bytree > 0.0) || colsample_bytree > 1.0) {
    return Status::InvalidArgument("colsample_bytree must be in (0, 1]");
  }
  if (max_bins < 2 || max_bins > kMaxBins) {
    return Status::InvalidArgument("max_bins must be in [2, " +
                                   std::to_string(kMaxBins) + "]");
  }
  if (!(scale_pos_weight > 0.0)) {
    return Status::InvalidArgument("scale_pos_weight must be > 0");
  }
  if (early_stopping_rounds < 0) {
    return Status::InvalidArgument("early_stopping_rounds must be >= 0");
  }
  for (int c : monotone_constraints) {
    if (c < -1 || c > 1) {
      return Status::InvalidArgument(
          "monotone_constraints entries must be -1, 0 or +1");
    }
  }
  return Status::Ok();
}

}  // namespace mysawh::gbt
