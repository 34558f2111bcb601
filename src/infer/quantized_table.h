#ifndef CAME_INFER_QUANTIZED_TABLE_H_
#define CAME_INFER_QUANTIZED_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "infer/candidate_panels.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_dtype.h"
#include "tensor/panel_bounds.h"
#include "tensor/tensor.h"

namespace came::infer {

/// A FusedEmbeddingTable's candidate matrix re-encoded for compact
/// serving: per-row symmetric int8 (1 byte/element + one fp32 scale per
/// row, ~0.25x the fp32 bytes) or bf16 (2 bytes/element, 0.5x). The
/// per-entity bias stays fp32 — it is [N] not [N, d], so quantizing it
/// would save nothing and cost accuracy. Folded encoder rows are not
/// carried: they exist to rebuild query encoders, which stay fp32.
///
/// The table lives in memory only: ScoreServer builds it from a fused
/// table at construction. The on-disk quantized form is a ShardStore
/// (ShardStore::Quantize).
class QuantizedTable {
 public:
  /// Empty table (num_entities() == 0). Populate via Build.
  QuantizedTable() = default;

  /// Quantizes `table`'s candidate matrix. `dtype` must be kInt8 or
  /// kBf16; rows containing NaN/Inf are rejected with InvalidArgument
  /// (a quantized table must never encode garbage).
  static Result<QuantizedTable> Build(const FusedEmbeddingTable& table,
                                      ScoreDtype dtype);

  const std::string& model_name() const { return model_name_; }
  ScoreDtype dtype() const { return dtype_; }
  int64_t num_entities() const { return num_entities_; }
  int64_t dim() const { return dim_; }
  bool has_bias() const { return bias_.numel() > 0; }
  const tensor::Tensor& bias() const { return bias_; }

  /// Quantized candidate rows, row-major [N, d]. int8 accessors require
  /// dtype() == kInt8, bf16 accessors dtype() == kBf16 (CHECK-enforced).
  const int8_t* int8_rows() const;
  /// Per-row fp32 dequantization scales, [N] (int8 only).
  const float* scales() const;
  const uint16_t* bf16_rows() const;

  /// Bytes of the encoded entity matrix including scales (the number the
  /// bench compares against N * d * 4 fp32 bytes).
  int64_t entity_matrix_bytes() const;

  /// Per-block score-bound metadata over the *encoded* rows (for int8,
  /// the bound covers the dequantized codes, scale-aware) plus the fp32
  /// bias. Always populated for a non-empty table.
  const tensor::PanelBoundTable& bounds() const { return bounds_; }

 private:
  /// Rebuilds bounds_ from the encoded rows + bias currently held.
  void ComputeBounds();

  std::string model_name_;
  ScoreDtype dtype_ = ScoreDtype::kInt8;
  int64_t num_entities_ = 0;
  int64_t dim_ = 0;
  std::vector<int8_t> int8_rows_;    // [N * d] when dtype == kInt8
  std::vector<float> scales_;        // [N] when dtype == kInt8
  std::vector<uint16_t> bf16_rows_;  // [N * d] when dtype == kBf16
  tensor::Tensor bias_;              // [N] or empty
  tensor::PanelBoundTable bounds_;
};

/// CandidatePanelSource over a QuantizedTable: the in-RAM quantized
/// analogue of FusedTablePanelSource. Panels are pointer arithmetic into
/// the contiguous encoded matrix; the fp32 Panel() accessor CHECK-fails
/// (the ScoreServer routes on dtype() and never calls it).
class QuantizedTablePanelSource : public CandidatePanelSource {
 public:
  /// `table` is not owned and must outlive the source.
  explicit QuantizedTablePanelSource(const QuantizedTable* table);

  int64_t num_entities() const override { return table_->num_entities(); }
  int64_t dim() const override { return table_->dim(); }
  bool has_bias() const override { return table_->has_bias(); }
  ScoreDtype dtype() const override { return table_->dtype(); }
  int64_t PanelEnd(int64_t begin) const override;
  const float* Panel(int64_t begin, int64_t end) override;
  const float* BiasPanel(int64_t begin, int64_t end) override;
  const int8_t* PanelInt8(int64_t begin, int64_t end) override;
  const float* PanelScales(int64_t begin, int64_t end) override;
  const uint16_t* PanelBf16(int64_t begin, int64_t end) override;
  float PanelMaxNorm(int64_t begin, int64_t end) const override;
  float PanelMaxBias(int64_t begin, int64_t end) const override;

 private:
  void CheckRange(int64_t begin, int64_t end) const;

  const QuantizedTable* table_;
};

}  // namespace came::infer

#endif  // CAME_INFER_QUANTIZED_TABLE_H_
