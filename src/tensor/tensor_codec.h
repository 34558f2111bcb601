#ifndef CAME_TENSOR_TENSOR_CODEC_H_
#define CAME_TENSOR_TENSOR_CODEC_H_

#include <string>
#include <utility>
#include <vector>

#include "common/section_file.h"
#include "common/status.h"
#include "tensor/tensor.h"

namespace came::tensor {

/// The one tensor encoding inside section payloads (DESIGN.md §8):
/// u32 ndim, i64 dims[ndim], f32 data[numel], little-endian.
void AppendTensor(std::string* buf, const Tensor& t);

/// Reads one tensor written by AppendTensor. Rejects ndim > 8, negative
/// dimensions and any shape whose data would not fit in the bytes left,
/// all before allocating. `*out` is only assigned on success.
Status ReadTensor(io::ByteReader* r, Tensor* out);

/// Named parameter tensors in Module::NamedParameters order.
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// u64 count, then per tensor u32 name_len, name bytes, tensor. The
/// payload of every MODL section: module parameter files and checkpoints.
void AppendNamedTensors(std::string* buf, const NamedTensors& named);
/// Reads what AppendNamedTensors wrote. `*out` is only assigned on
/// success.
Status ReadNamedTensors(io::ByteReader* r, NamedTensors* out);

}  // namespace came::tensor

#endif  // CAME_TENSOR_TENSOR_CODEC_H_
