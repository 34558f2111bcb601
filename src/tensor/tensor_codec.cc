#include "tensor/tensor_codec.h"

#include <algorithm>

namespace came::tensor {

namespace {

constexpr uint32_t kMaxNdim = 8;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint64_t kMaxTensors = 1ULL << 20;

}  // namespace

void AppendTensor(std::string* buf, const Tensor& t) {
  io::AppendPod(buf, static_cast<uint32_t>(t.ndim()));
  for (int64_t d : t.shape()) io::AppendPod(buf, d);
  buf->append(reinterpret_cast<const char*>(t.data()),
              static_cast<size_t>(t.numel()) * sizeof(float));
}

Status ReadTensor(io::ByteReader* r, Tensor* out) {
  uint32_t ndim = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&ndim));
  if (ndim > kMaxNdim) {
    return Status::Corruption(r->context() + ": tensor ndim " +
                              std::to_string(ndim) + " out of range");
  }
  Shape shape(ndim);
  for (int64_t& d : shape) {
    CAME_RETURN_IF_ERROR(r->ReadPod(&d));
    if (d < 0) {
      return Status::Corruption(r->context() + ": negative tensor dimension");
    }
  }
  // The data must fit in what is left of the payload. Checking the count
  // one dimension at a time keeps the product from overflowing and
  // rejects a hostile shape before anything is allocated.
  const uint64_t max_numel = r->remaining() / sizeof(float);
  uint64_t numel = std::count(shape.begin(), shape.end(), 0) > 0 ? 0 : 1;
  for (const int64_t d : shape) {
    if (numel == 0) break;
    if (static_cast<uint64_t>(d) > max_numel / numel) {
      return Status::Corruption(r->context() +
                                ": tensor data exceeds the payload");
    }
    numel *= static_cast<uint64_t>(d);
  }
  Tensor t(std::move(shape));
  CAME_RETURN_IF_ERROR(r->ReadRaw(t.data(), numel * sizeof(float)));
  *out = std::move(t);
  return Status::OK();
}

void AppendNamedTensors(std::string* buf, const NamedTensors& named) {
  io::AppendPod(buf, static_cast<uint64_t>(named.size()));
  for (const auto& [name, t] : named) {
    io::AppendPod(buf, static_cast<uint32_t>(name.size()));
    buf->append(name);
    AppendTensor(buf, t);
  }
}

Status ReadNamedTensors(io::ByteReader* r, NamedTensors* out) {
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&count));
  // Every entry takes at least 8 bytes (name length and ndim), so a
  // count the payload cannot hold is rejected before the reserve below.
  if (count > kMaxTensors || count > r->remaining() / 8) {
    return Status::Corruption(r->context() + ": tensor count out of range");
  }
  NamedTensors named;
  named.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    CAME_RETURN_IF_ERROR(r->ReadPod(&name_len));
    if (name_len > kMaxNameLen) {
      return Status::Corruption(r->context() +
                                ": tensor name length out of range");
    }
    std::string name(name_len, '\0');
    CAME_RETURN_IF_ERROR(r->ReadRaw(name.data(), name_len));
    Tensor t;
    CAME_RETURN_IF_ERROR(ReadTensor(r, &t));
    named.emplace_back(std::move(name), std::move(t));
  }
  *out = std::move(named);
  return Status::OK();
}

}  // namespace came::tensor
