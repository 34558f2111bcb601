// FusedEmbeddingTable on-disk format: bitwise round-trips. The corruption
// cases run in the shared section-file suite
// (tests/integration/format_corruption_test.cc).
#include "infer/fused_embedding_table.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/status.h"
#include "tensor/tensor.h"

namespace came::infer {
namespace {

std::string TmpPath(const std::string& tag) {
  return ::testing::TempDir() + "came_fused_table_" + tag + ".bin";
}

FusedEmbeddingTable SyntheticTable() {
  tensor::Tensor cand = tensor::Tensor::FromVector(
      {4, 3}, {0.5f, -1.25f, 3.0f,   //
               2.0f, 0.0f, -0.75f,   //
               1.5f, 1.5f, 1.5f,     //
               -2.0f, 4.25f, 0.25f});
  tensor::Tensor bias = tensor::Tensor::FromVector({4}, {0.1f, -0.2f, 0.0f, 7.5f});
  tensor::Tensor fold = tensor::Tensor::Arange(4 * 5).Reshape({4, 5});
  return FusedEmbeddingTable("TestModel", cand, bias, fold);
}

void ExpectBitwiseEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  ASSERT_EQ(a.ndim(), b.ndim());
  for (int64_t i = 0; i < a.ndim(); ++i) EXPECT_EQ(a.dim(i), b.dim(i));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(FusedTableFormatTest, RoundTripIsBitwise) {
  const std::string path = TmpPath("roundtrip");
  const FusedEmbeddingTable table = SyntheticTable();
  ASSERT_TRUE(table.Save(path).ok());

  FusedEmbeddingTable loaded;
  ASSERT_TRUE(FusedEmbeddingTable::Load(path, &loaded).ok());
  EXPECT_EQ(loaded.model_name(), "TestModel");
  EXPECT_EQ(loaded.num_entities(), 4);
  EXPECT_EQ(loaded.dim(), 3);
  ASSERT_TRUE(loaded.has_bias());
  ASSERT_TRUE(loaded.has_folded_rows());
  ExpectBitwiseEqual(loaded.candidates(), table.candidates());
  ExpectBitwiseEqual(loaded.bias(), table.bias());
  ExpectBitwiseEqual(loaded.folded_rows(), table.folded_rows());
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, AbsentBiasAndFoldRoundTrip) {
  const std::string path = TmpPath("no_bias");
  tensor::Tensor cand = tensor::Tensor::Full({2, 2}, 1.0f);
  const FusedEmbeddingTable table("Bare", cand, tensor::Tensor(),
                                  tensor::Tensor());
  ASSERT_TRUE(table.Save(path).ok());

  FusedEmbeddingTable loaded;
  ASSERT_TRUE(FusedEmbeddingTable::Load(path, &loaded).ok());
  EXPECT_FALSE(loaded.has_bias());
  EXPECT_FALSE(loaded.has_folded_rows());
  EXPECT_EQ(loaded.num_entities(), 2);
  std::remove(path.c_str());
}

TEST(FusedTableFormatTest, MissingFileIsAnError) {
  FusedEmbeddingTable out;
  EXPECT_FALSE(
      FusedEmbeddingTable::Load(TmpPath("never_written"), &out).ok());
}

}  // namespace
}  // namespace came::infer
