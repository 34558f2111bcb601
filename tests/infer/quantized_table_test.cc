// QuantizedTable contract tests: Build matches direct quantization and
// rejects garbage, and the panel source serves pointer slices.
#include "infer/quantized_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "infer/fused_embedding_table.h"
#include "infer/score_dtype.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

constexpr int64_t kN = 53;
constexpr int64_t kDim = 7;

FusedEmbeddingTable MakeTable(bool with_bias, uint64_t seed = 0xF00D) {
  Rng rng(seed);
  tensor::Tensor cand({kN, kDim});
  for (int64_t i = 0; i < kN * kDim; ++i) {
    cand.data()[i] = static_cast<float>(rng.Normal());
  }
  // One all-zero row: scale 0 must round-trip.
  std::memset(cand.data() + 17 * kDim, 0, sizeof(float) * kDim);
  tensor::Tensor bias;
  if (with_bias) {
    bias = tensor::Tensor({kN});
    for (int64_t i = 0; i < kN; ++i) {
      bias.data()[i] = static_cast<float>(rng.Normal());
    }
  }
  return FusedEmbeddingTable("QuantFixture", cand, bias, tensor::Tensor());
}

TEST(QuantizedTableTest, BuildInt8MatchesDirectQuantization) {
  const FusedEmbeddingTable table = MakeTable(/*with_bias=*/true);
  const Result<QuantizedTable> built =
      QuantizedTable::Build(table, ScoreDtype::kInt8);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QuantizedTable& q = built.value();
  EXPECT_EQ(q.dtype(), ScoreDtype::kInt8);
  EXPECT_EQ(q.num_entities(), kN);
  EXPECT_EQ(q.dim(), kDim);
  EXPECT_EQ(q.model_name(), "QuantFixture");
  ASSERT_TRUE(q.has_bias());
  EXPECT_EQ(std::memcmp(q.bias().data(), table.bias().data(),
                        sizeof(float) * kN),
            0);

  std::vector<int8_t> want_rows(static_cast<size_t>(kN * kDim));
  std::vector<float> want_scales(static_cast<size_t>(kN));
  ASSERT_TRUE(tensor::qgemm::QuantizeRowsInt8(table.candidates().data(), kN,
                                              kDim, want_rows.data(),
                                              want_scales.data())
                  .ok());
  EXPECT_EQ(std::memcmp(q.int8_rows(), want_rows.data(), want_rows.size()), 0);
  EXPECT_EQ(std::memcmp(q.scales(), want_scales.data(),
                        want_scales.size() * sizeof(float)),
            0);
  EXPECT_EQ(q.scales()[17], 0.0f);  // the all-zero row
  // int8 bytes + fp32 scales: well under the 0.3x fp32 budget.
  EXPECT_EQ(q.entity_matrix_bytes(), kN * kDim + kN * 4);
  EXPECT_LT(static_cast<double>(q.entity_matrix_bytes()),
            0.5 * static_cast<double>(kN * kDim * 4));
}

TEST(QuantizedTableTest, BuildBf16MatchesDirectEncoding) {
  const FusedEmbeddingTable table = MakeTable(/*with_bias=*/false);
  const Result<QuantizedTable> built =
      QuantizedTable::Build(table, ScoreDtype::kBf16);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QuantizedTable& q = built.value();
  EXPECT_EQ(q.dtype(), ScoreDtype::kBf16);
  EXPECT_FALSE(q.has_bias());
  std::vector<uint16_t> want(static_cast<size_t>(kN * kDim));
  ASSERT_TRUE(tensor::qgemm::EncodeRowsBf16(table.candidates().data(), kN,
                                            kDim, want.data())
                  .ok());
  EXPECT_EQ(std::memcmp(q.bf16_rows(), want.data(),
                        want.size() * sizeof(uint16_t)),
            0);
  EXPECT_EQ(q.entity_matrix_bytes(), kN * kDim * 2);
}

TEST(QuantizedTableTest, BuildRejectsFp32EmptyAndNonFinite) {
  const FusedEmbeddingTable table = MakeTable(/*with_bias=*/true);
  const Result<QuantizedTable> fp32 =
      QuantizedTable::Build(table, ScoreDtype::kFp32);
  ASSERT_FALSE(fp32.ok());
  EXPECT_EQ(fp32.status().code(), Status::Code::kInvalidArgument);

  const FusedEmbeddingTable empty;
  const Result<QuantizedTable> from_empty =
      QuantizedTable::Build(empty, ScoreDtype::kInt8);
  ASSERT_FALSE(from_empty.ok());
  EXPECT_EQ(from_empty.status().code(), Status::Code::kInvalidArgument);

  tensor::Tensor cand({2, 3});
  for (int64_t i = 0; i < 6; ++i) cand.data()[i] = 1.0f;
  cand.data()[4] = std::numeric_limits<float>::quiet_NaN();
  const FusedEmbeddingTable poisoned("Poisoned", cand, tensor::Tensor(),
                                     tensor::Tensor());
  for (const ScoreDtype dtype : {ScoreDtype::kInt8, ScoreDtype::kBf16}) {
    const Result<QuantizedTable> bad = QuantizedTable::Build(poisoned, dtype);
    ASSERT_FALSE(bad.ok()) << ScoreDtypeName(dtype);
    EXPECT_EQ(bad.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(bad.status().message().find("row 1"), std::string::npos)
        << bad.status().ToString();
  }
}

TEST(QuantizedTableTest, BuildComputesBoundsForBothEncodings) {
  const FusedEmbeddingTable table = MakeTable(/*with_bias=*/true);
  for (const ScoreDtype dtype : {ScoreDtype::kInt8, ScoreDtype::kBf16}) {
    const QuantizedTable q = QuantizedTable::Build(table, dtype).value();
    ASSERT_FALSE(q.bounds().empty()) << ScoreDtypeName(dtype);
    EXPECT_EQ(q.bounds().rows(), kN) << ScoreDtypeName(dtype);
  }
}

TEST(QuantizedTableTest, PanelSourceServesPointerSlices) {
  const FusedEmbeddingTable table = MakeTable(/*with_bias=*/true);
  const QuantizedTable q =
      QuantizedTable::Build(table, ScoreDtype::kInt8).value();
  QuantizedTablePanelSource src(&q);
  EXPECT_EQ(src.num_entities(), kN);
  EXPECT_EQ(src.dim(), kDim);
  EXPECT_TRUE(src.has_bias());
  EXPECT_EQ(src.dtype(), ScoreDtype::kInt8);
  EXPECT_EQ(src.PanelEnd(0), kN);  // in-RAM: no shard boundaries
  EXPECT_EQ(src.PanelInt8(10, 20), q.int8_rows() + 10 * kDim);
  EXPECT_EQ(src.PanelScales(10, 20), q.scales() + 10);
  EXPECT_EQ(src.BiasPanel(10, 20), q.bias().data() + 10);
  EXPECT_DEATH(src.Panel(0, 10), "");

  const QuantizedTable qb =
      QuantizedTable::Build(table, ScoreDtype::kBf16).value();
  QuantizedTablePanelSource srcb(&qb);
  EXPECT_EQ(srcb.dtype(), ScoreDtype::kBf16);
  EXPECT_EQ(srcb.PanelBf16(3, 9), qb.bf16_rows() + 3 * kDim);
  EXPECT_DEATH(srcb.PanelInt8(0, 1), "");
}

TEST(ScoreDtypeTest, ParseAndName) {
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kFp32), "fp32");
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kInt8), "int8");
  EXPECT_EQ(ScoreDtypeName(ScoreDtype::kBf16), "bf16");
  for (const ScoreDtype d :
       {ScoreDtype::kFp32, ScoreDtype::kInt8, ScoreDtype::kBf16}) {
    const Result<ScoreDtype> parsed = ParseScoreDtype(ScoreDtypeName(d));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), d);
  }
  EXPECT_FALSE(ParseScoreDtype("fp16").ok());
  EXPECT_FALSE(ParseScoreDtype("").ok());
}

}  // namespace
}  // namespace came::infer
