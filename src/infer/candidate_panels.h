#ifndef CAME_INFER_CANDIDATE_PANELS_H_
#define CAME_INFER_CANDIDATE_PANELS_H_

#include <cstdint>

#include "tensor/panel_bounds.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"

namespace came::infer {

/// The candidate entities the ScoreServer sweeps: a tensor::ShardStore of
/// rows plus an optional per-entity bias. The store is either mmap-backed
/// (slabs page in and out under a residency budget; panels must respect
/// shard boundaries, which PanelEnd reports) or the one-shard in-RAM
/// store a fused-table server builds, where PanelEnd is always N. The
/// store's dtype is the precision the sweep scores in, and its panel
/// accessors (PanelRows, QuantPanelRows + PanelScales, Bf16PanelRows)
/// serve the rows.
///
/// Score bounds for pruning: PanelMaxNorm is the store's per-block norm
/// bound (tensor::PanelBoundTable); PanelMaxBias is the per-64-row-block
/// maximum of the bias (0 without one), computed here once.
///
/// Thread-safe for concurrent readers: the bias and its maxima are
/// immutable after construction and the store synchronises its own
/// residency. A panel pointer from the store stays valid across other
/// threads' accesses only while the caller holds a pin on its range
/// (ShardStore::PinPanel).
class ShardStorePanelSource {
 public:
  /// `store` is not owned and must outlive the source. `bias` is a
  /// [store->rows()] handle, or an empty tensor for no bias
  /// (inner-product-only models).
  explicit ShardStorePanelSource(tensor::ShardStore* store,
                                 tensor::Tensor bias = tensor::Tensor());

  tensor::ShardStore* store() const { return store_; }
  int64_t num_entities() const { return store_->rows(); }
  int64_t dim() const { return store_->dim(); }
  tensor::ShardDtype dtype() const { return store_->dtype(); }
  bool has_bias() const { return bias_.numel() > 0; }

  /// Largest legal exclusive end for a panel starting at `begin` (the
  /// owning shard's boundary).
  int64_t PanelEnd(int64_t begin) const { return store_->ShardEnd(begin); }

  /// Per-entity bias for rows [begin, end), indexed panel-locally
  /// (result[j] is the bias of entity begin + j). Requires has_bias().
  const float* BiasPanel(int64_t begin, int64_t end) const;

  /// Upper bound (>=) on the L2 norm of every candidate row in
  /// [begin, end) — for quantized stores, of the decoded rows the sweep
  /// actually scores. +inf when the store has no bounds (never prune).
  float PanelMaxNorm(int64_t begin, int64_t end) const {
    return store_->bounds().MaxNorm(begin, end);
  }
  /// Upper bound (>=) on the bias of every row in [begin, end).
  float PanelMaxBias(int64_t begin, int64_t end) const;

 private:
  tensor::ShardStore* store_;
  tensor::Tensor bias_;              // [N] or empty
  tensor::PanelBoundTable bias_max_;  // bias-only blocks; empty without bias
};

}  // namespace came::infer

#endif  // CAME_INFER_CANDIDATE_PANELS_H_
