#include "tensor/panel_bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/section_file.h"
#include "tensor/qgemm.h"

namespace came::tensor {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

PanelBoundTable::PanelBoundTable(int64_t rows, int64_t block_rows)
    : rows_(rows), block_rows_(block_rows) {
  CAME_CHECK_GT(rows, 0);
  CAME_CHECK_GT(block_rows, 0);
  const int64_t blocks = (rows + block_rows - 1) / block_rows;
  norms_.assign(static_cast<size_t>(blocks), 0.0f);
  bias_max_.assign(static_cast<size_t>(blocks), 0.0f);
}

void PanelBoundTable::AccountRow(int64_t r, float norm_upper, float bias) {
  CAME_CHECK(!empty());
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const size_t blk = static_cast<size_t>(r / block_rows_);
  // NaN would poison the max comparisons below into silently keeping the
  // old (too-small) value; widen to +inf, which correctly never prunes.
  if (std::isnan(norm_upper)) norm_upper = kInf;
  if (std::isnan(bias)) bias = kInf;
  norms_[blk] = std::max(norms_[blk], norm_upper);
  bias_max_[blk] = std::max(bias_max_[blk], bias);
}

float PanelBoundTable::MaxNorm(int64_t begin, int64_t end) const {
  if (empty()) return kInf;
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, rows_);
  float m = 0.0f;
  for (int64_t b = begin / block_rows_; b <= (end - 1) / block_rows_; ++b) {
    m = std::max(m, norms_[static_cast<size_t>(b)]);
  }
  return m;
}

float PanelBoundTable::MaxBias(int64_t begin, int64_t end) const {
  if (empty()) return kInf;
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_LE(end, rows_);
  float m = bias_max_[static_cast<size_t>(begin / block_rows_)];
  for (int64_t b = begin / block_rows_ + 1; b <= (end - 1) / block_rows_;
       ++b) {
    m = std::max(m, bias_max_[static_cast<size_t>(b)]);
  }
  return m;
}

std::string PanelBoundTable::Encode() const {
  std::string buf;
  io::AppendPod(&buf, rows_);
  io::AppendPod(&buf, block_rows_);
  io::AppendPod(&buf, static_cast<uint64_t>(norms_.size()));
  buf.append(reinterpret_cast<const char*>(norms_.data()),
             norms_.size() * sizeof(float));
  buf.append(reinterpret_cast<const char*>(bias_max_.data()),
             bias_max_.size() * sizeof(float));
  return buf;
}

Result<PanelBoundTable> PanelBoundTable::Decode(const char* data,
                                                size_t size) {
  io::ByteReader r(data, size, "panel bounds");
  int64_t rows = 0;
  int64_t block_rows = 0;
  uint64_t blocks = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&rows));
  CAME_RETURN_IF_ERROR(r.ReadPod(&block_rows));
  CAME_RETURN_IF_ERROR(r.ReadPod(&blocks));
  if (rows <= 0 || block_rows <= 0 ||
      blocks != static_cast<uint64_t>((rows - 1) / block_rows + 1)) {
    return Status::Corruption("implausible panel bounds geometry");
  }
  // Divide rather than multiply: a hostile block count must not wrap the
  // byte count around to the payload size.
  constexpr size_t kBlockBytes = 2 * sizeof(float);
  if (r.remaining() % kBlockBytes != 0 ||
      r.remaining() / kBlockBytes != blocks) {
    return Status::Corruption("panel bounds payload length mismatch");
  }
  PanelBoundTable t(rows, block_rows);
  CAME_RETURN_IF_ERROR(r.ReadRaw(t.norms_.data(), blocks * sizeof(float)));
  CAME_RETURN_IF_ERROR(r.ReadRaw(t.bias_max_.data(), blocks * sizeof(float)));
  for (size_t b = 0; b < blocks; ++b) {
    // A negative or NaN "max norm" can only come from a corrupt or
    // hostile payload; serving with it would make pruning unsound.
    if (std::isnan(t.norms_[b]) || t.norms_[b] < 0.0f ||
        std::isnan(t.bias_max_[b])) {
      return Status::Corruption("panel bounds contain invalid block values");
    }
  }
  return t;
}

void AccountRowsFp32(PanelBoundTable* bounds, const float* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(first_row + i,
                       qgemm::RowNormUpperBoundFp32(rows + i * d, d),
                       bias != nullptr ? bias[i] : 0.0f);
  }
}

void AccountRowsInt8(PanelBoundTable* bounds, const int8_t* codes,
                     const float* scales, const float* bias,
                     int64_t first_row, int64_t n, int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(
        first_row + i,
        qgemm::RowNormUpperBoundInt8(codes + i * d, d, scales[i]),
        bias != nullptr ? bias[i] : 0.0f);
  }
}

void AccountRowsBf16(PanelBoundTable* bounds, const uint16_t* rows,
                     const float* bias, int64_t first_row, int64_t n,
                     int64_t d) {
  for (int64_t i = 0; i < n; ++i) {
    bounds->AccountRow(first_row + i,
                       qgemm::RowNormUpperBoundBf16(rows + i * d, d),
                       bias != nullptr ? bias[i] : 0.0f);
  }
}

}  // namespace came::tensor
