#include "infer/candidate_panels.h"

#include <utility>

#include "common/logging.h"

namespace came::infer {

ShardStorePanelSource::ShardStorePanelSource(tensor::ShardStore* store,
                                             tensor::Tensor bias)
    : store_(store), bias_(std::move(bias)) {
  CAME_CHECK(store_ != nullptr);
  if (!has_bias()) return;
  CAME_CHECK_EQ(bias_.ndim(), 1);
  CAME_CHECK_EQ(bias_.dim(0), store_->rows()) << "bias/candidate row mismatch";
  // Same 64-row blocks, zero baseline and NaN-to-+inf widening as the
  // store's norm bounds, with the norms left at zero.
  bias_max_ = tensor::PanelBoundTable(store_->rows(),
                                      tensor::kDefaultBoundBlockRows);
  for (int64_t r = 0; r < store_->rows(); ++r) {
    bias_max_.AccountRow(r, 0.0f, bias_.data()[r]);
  }
}

const float* ShardStorePanelSource::BiasPanel(int64_t begin,
                                              int64_t end) const {
  CAME_CHECK(has_bias()) << "candidate source has no bias";
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, store_->rows());
  return bias_.data() + begin;
}

float ShardStorePanelSource::PanelMaxBias(int64_t begin, int64_t end) const {
  return has_bias() ? bias_max_.MaxBias(begin, end) : 0.0f;
}

}  // namespace came::infer
