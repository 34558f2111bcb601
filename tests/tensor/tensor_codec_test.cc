#include "tensor/tensor_codec.h"

#include <gtest/gtest.h>

#include <string>

namespace came::tensor {
namespace {

// Encodes a tensor header (ndim, dims) followed by `data_bytes` zero bytes.
std::string Header(const Shape& shape, size_t data_bytes) {
  std::string buf;
  io::AppendPod(&buf, static_cast<uint32_t>(shape.size()));
  for (int64_t d : shape) io::AppendPod(&buf, d);
  buf.append(data_bytes, '\0');
  return buf;
}

Status Decode(const std::string& buf, Tensor* out) {
  io::ByteReader r(buf.data(), buf.size());
  CAME_RETURN_IF_ERROR(ReadTensor(&r, out));
  return r.ExpectEnd();
}

TEST(TensorCodecTest, RoundTripsShapesAndBits) {
  for (const Shape& shape : {Shape{3, 4}, Shape{5}, Shape{0}, Shape{2, 0, 3},
                             Shape{}}) {
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = 0.5f * static_cast<float>(i) - 1.0f;
    }
    std::string buf;
    AppendTensor(&buf, t);
    Tensor back;
    ASSERT_TRUE(Decode(buf, &back).ok()) << ShapeToString(shape);
    EXPECT_EQ(back.shape(), shape);
    ASSERT_EQ(back.numel(), t.numel());
    for (int64_t i = 0; i < t.numel(); ++i) {
      EXPECT_EQ(back.data()[i], t.data()[i]);
    }
  }
}

TEST(TensorCodecTest, RejectsHostileShapesBeforeAllocating) {
  // Each of these would ask for far more memory than the payload holds;
  // the codec must refuse from the header alone.
  for (const Shape& shape :
       {Shape{int64_t{1} << 36}, Shape{int64_t{1} << 33, int64_t{1} << 33},
        Shape{int64_t{1} << 62, 4}, Shape{3, 4}}) {
    Tensor out = Tensor::Full({2}, 7.0f);
    const Status st = Decode(Header(shape, 16), &out);
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << ShapeToString(shape);
    // A failed read leaves the output alone.
    EXPECT_EQ(out.shape(), (Shape{2}));
    EXPECT_EQ(out.data()[1], 7.0f);
  }
}

TEST(TensorCodecTest, RejectsNegativeDimsAndTooManyDims) {
  Tensor out;
  EXPECT_EQ(Decode(Header({-1, 2}, 0), &out).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(Decode(Header(Shape(9, 1), 4), &out).code(),
            Status::Code::kCorruption);
}

TEST(TensorCodecTest, NamedTensorsRoundTripAndRejectHugeCounts) {
  NamedTensors named;
  named.emplace_back("a.w", Tensor::Full({2, 2}, 1.5f));
  named.emplace_back("b", Tensor::Full({3}, -2.0f));
  std::string buf;
  AppendNamedTensors(&buf, named);
  io::ByteReader r(buf.data(), buf.size());
  NamedTensors back;
  ASSERT_TRUE(ReadNamedTensors(&r, &back).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].first, "a.w");
  EXPECT_EQ(back[1].second.data()[2], -2.0f);

  std::string huge;
  io::AppendPod(&huge, uint64_t{1} << 19);  // entries the payload cannot hold
  io::ByteReader hr(huge.data(), huge.size());
  EXPECT_EQ(ReadNamedTensors(&hr, &back).code(), Status::Code::kCorruption);
  EXPECT_EQ(back.size(), 2u);
}

}  // namespace
}  // namespace came::tensor
