#include "infer/quantized_table.h"

#include <utility>

#include "common/logging.h"
#include "tensor/qgemm.h"

namespace came::infer {

Result<QuantizedTable> QuantizedTable::Build(const FusedEmbeddingTable& table,
                                             ScoreDtype dtype) {
  if (dtype != ScoreDtype::kInt8 && dtype != ScoreDtype::kBf16) {
    return Status::InvalidArgument(
        "QuantizedTable::Build wants int8 or bf16, got " +
        ScoreDtypeName(dtype));
  }
  const int64_t n = table.num_entities();
  const int64_t d = table.dim();
  if (n <= 0 || d <= 0) {
    return Status::InvalidArgument("cannot quantize an empty fused table");
  }

  QuantizedTable out;
  out.model_name_ = table.model_name();
  out.dtype_ = dtype;
  out.num_entities_ = n;
  out.dim_ = d;
  const float* src = table.candidates().data();
  if (dtype == ScoreDtype::kInt8) {
    out.int8_rows_.resize(static_cast<size_t>(n * d));
    out.scales_.resize(static_cast<size_t>(n));
    CAME_RETURN_IF_ERROR(tensor::qgemm::QuantizeRowsInt8(
        src, n, d, out.int8_rows_.data(), out.scales_.data()));
  } else {
    out.bf16_rows_.resize(static_cast<size_t>(n * d));
    CAME_RETURN_IF_ERROR(
        tensor::qgemm::EncodeRowsBf16(src, n, d, out.bf16_rows_.data()));
  }
  if (table.has_bias()) out.bias_ = table.bias().Clone();
  out.ComputeBounds();
  return out;
}

void QuantizedTable::ComputeBounds() {
  bounds_ = tensor::PanelBoundTable(num_entities_,
                                    tensor::kDefaultBoundBlockRows);
  const float* bias = has_bias() ? bias_.data() : nullptr;
  if (dtype_ == ScoreDtype::kInt8) {
    tensor::AccountRowsInt8(&bounds_, int8_rows_.data(), scales_.data(),
                            bias, /*first_row=*/0, num_entities_, dim_);
  } else {
    tensor::AccountRowsBf16(&bounds_, bf16_rows_.data(), bias,
                            /*first_row=*/0, num_entities_, dim_);
  }
}

const int8_t* QuantizedTable::int8_rows() const {
  CAME_CHECK(dtype_ == ScoreDtype::kInt8)
      << "table dtype is " << ScoreDtypeName(dtype_);
  return int8_rows_.data();
}

const float* QuantizedTable::scales() const {
  CAME_CHECK(dtype_ == ScoreDtype::kInt8)
      << "table dtype is " << ScoreDtypeName(dtype_);
  return scales_.data();
}

const uint16_t* QuantizedTable::bf16_rows() const {
  CAME_CHECK(dtype_ == ScoreDtype::kBf16)
      << "table dtype is " << ScoreDtypeName(dtype_);
  return bf16_rows_.data();
}

int64_t QuantizedTable::entity_matrix_bytes() const {
  if (dtype_ == ScoreDtype::kInt8) {
    return static_cast<int64_t>(int8_rows_.size()) +
           static_cast<int64_t>(scales_.size()) * 4;
  }
  return static_cast<int64_t>(bf16_rows_.size()) * 2;
}

QuantizedTablePanelSource::QuantizedTablePanelSource(
    const QuantizedTable* table)
    : table_(table) {
  CAME_CHECK(table_ != nullptr);
  CAME_CHECK_GT(table_->num_entities(), 0) << "empty quantized table";
}

void QuantizedTablePanelSource::CheckRange(int64_t begin, int64_t end) const {
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, table_->num_entities());
}

int64_t QuantizedTablePanelSource::PanelEnd(int64_t begin) const {
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, table_->num_entities());
  return table_->num_entities();
}

const float* QuantizedTablePanelSource::Panel(int64_t, int64_t) {
  CAME_CHECK(false) << "quantized table source has no fp32 panels (dtype "
                    << ScoreDtypeName(table_->dtype()) << ")";
  return nullptr;
}

const float* QuantizedTablePanelSource::BiasPanel(int64_t begin, int64_t end) {
  CAME_CHECK(table_->has_bias());
  CheckRange(begin, end);
  return table_->bias().data() + begin;
}

const int8_t* QuantizedTablePanelSource::PanelInt8(int64_t begin,
                                                   int64_t end) {
  CheckRange(begin, end);
  return table_->int8_rows() + begin * table_->dim();
}

const float* QuantizedTablePanelSource::PanelScales(int64_t begin,
                                                    int64_t end) {
  CheckRange(begin, end);
  return table_->scales() + begin;
}

const uint16_t* QuantizedTablePanelSource::PanelBf16(int64_t begin,
                                                     int64_t end) {
  CheckRange(begin, end);
  return table_->bf16_rows() + begin * table_->dim();
}

float QuantizedTablePanelSource::PanelMaxNorm(int64_t begin,
                                              int64_t end) const {
  return table_->bounds().MaxNorm(begin, end);
}

float QuantizedTablePanelSource::PanelMaxBias(int64_t begin,
                                              int64_t end) const {
  return table_->bounds().MaxBias(begin, end);
}

}  // namespace came::infer
