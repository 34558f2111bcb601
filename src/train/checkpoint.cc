#include "train/checkpoint.h"

#include <utility>

#include "common/logging.h"
#include "common/section_file.h"
#include "tensor/tensor_codec.h"

namespace came::train {

namespace {

// Layout: an io section file (DESIGN.md §8), version 1, with four
// sections in this order:
//   MODL  named parameter tensors (tensor::AppendNamedTensors)
//   OPTM  i64 adam_step, u64 count, count m tensors, count v tensors
//   RNGS  u64 count, per stream u64 s[4], u8 has_cached_normal,
//         f64 cached_normal
//   TRNR  i64 epochs_run, u8 has_best, the best eval::Metrics fields,
//         u64 count, count snapshot tensors
constexpr char kMagic[] = "CAMECKP1";
constexpr uint32_t kVersion = 1;

constexpr uint32_t kSectionModel = io::FourCc("MODL");
constexpr uint32_t kSectionOptim = io::FourCc("OPTM");
constexpr uint32_t kSectionRngs = io::FourCc("RNGS");
constexpr uint32_t kSectionTrainer = io::FourCc("TRNR");

constexpr uint64_t kMaxTensors = 1ULL << 20;

using io::AppendPod;
using io::ByteReader;
using tensor::AppendTensor;
using tensor::ReadTensor;

// --- section payloads ----------------------------------------------------

std::string EncodeOptimSection(const CheckpointState& s) {
  std::string buf;
  AppendPod(&buf, s.adam_step);
  AppendPod(&buf, static_cast<uint64_t>(s.adam_m.size()));
  for (const auto& t : s.adam_m) AppendTensor(&buf, t);
  for (const auto& t : s.adam_v) AppendTensor(&buf, t);
  return buf;
}

Status DecodeOptimSection(ByteReader* r, CheckpointState* s) {
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->adam_step));
  if (s->adam_step < 0) {
    return Status::Corruption("negative Adam step count");
  }
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&count));
  // Each tensor takes at least its 4-byte ndim; a count the payload
  // cannot hold is rejected before the vectors are sized.
  if (count > kMaxTensors || count > r->remaining() / 8) {
    return Status::Corruption("Adam moment count out of range");
  }
  s->adam_m.assign(count, tensor::Tensor());
  s->adam_v.assign(count, tensor::Tensor());
  for (auto& t : s->adam_m) CAME_RETURN_IF_ERROR(ReadTensor(r, &t));
  for (auto& t : s->adam_v) CAME_RETURN_IF_ERROR(ReadTensor(r, &t));
  return Status::OK();
}

std::string EncodeRngSection(const CheckpointState& s) {
  std::string buf;
  AppendPod(&buf, static_cast<uint64_t>(s.rng_streams.size()));
  for (const Rng::State& st : s.rng_streams) {
    for (uint64_t w : st.s) AppendPod(&buf, w);
    AppendPod(&buf, static_cast<uint8_t>(st.has_cached_normal ? 1 : 0));
    AppendPod(&buf, st.cached_normal);
  }
  return buf;
}

Status DecodeRngSection(ByteReader* r, CheckpointState* s) {
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&count));
  if (count > 1024) {
    return Status::Corruption("rng stream count out of range");
  }
  s->rng_streams.assign(count, Rng::State{});
  for (Rng::State& st : s->rng_streams) {
    for (uint64_t& w : st.s) CAME_RETURN_IF_ERROR(r->ReadPod(&w));
    uint8_t flag = 0;
    CAME_RETURN_IF_ERROR(r->ReadPod(&flag));
    if (flag > 1) return Status::Corruption("bad rng cache flag");
    st.has_cached_normal = flag == 1;
    CAME_RETURN_IF_ERROR(r->ReadPod(&st.cached_normal));
  }
  return Status::OK();
}

std::string EncodeTrainerSection(const CheckpointState& s) {
  std::string buf;
  AppendPod(&buf, s.epochs_run);
  AppendPod(&buf, static_cast<uint8_t>(s.has_best ? 1 : 0));
  AppendPod(&buf, s.best.rank_sum);
  AppendPod(&buf, s.best.reciprocal_sum);
  AppendPod(&buf, s.best.hits1);
  AppendPod(&buf, s.best.hits3);
  AppendPod(&buf, s.best.hits10);
  AppendPod(&buf, s.best.count);
  AppendPod(&buf, static_cast<uint64_t>(s.best_snapshot.size()));
  for (const auto& t : s.best_snapshot) AppendTensor(&buf, t);
  return buf;
}

Status DecodeTrainerSection(ByteReader* r, CheckpointState* s) {
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->epochs_run));
  if (s->epochs_run < 0) {
    return Status::Corruption("negative epoch counter");
  }
  uint8_t has_best = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&has_best));
  if (has_best > 1) return Status::Corruption("bad has_best flag");
  s->has_best = has_best == 1;
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.rank_sum));
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.reciprocal_sum));
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.hits1));
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.hits3));
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.hits10));
  CAME_RETURN_IF_ERROR(r->ReadPod(&s->best.count));
  uint64_t count = 0;
  CAME_RETURN_IF_ERROR(r->ReadPod(&count));
  if (count > kMaxTensors || count > r->remaining() / 4) {
    return Status::Corruption("snapshot tensor count out of range");
  }
  s->best_snapshot.assign(count, tensor::Tensor());
  for (auto& t : s->best_snapshot) CAME_RETURN_IF_ERROR(ReadTensor(r, &t));
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(const std::string& path, const CheckpointState& state) {
  std::string model;
  tensor::AppendNamedTensors(&model, state.params);
  io::SectionFileWriter file(kMagic, kVersion);
  file.AppendSection(kSectionModel, model);
  file.AppendSection(kSectionOptim, EncodeOptimSection(state));
  file.AppendSection(kSectionRngs, EncodeRngSection(state));
  file.AppendSection(kSectionTrainer, EncodeTrainerSection(state));
  return file.Commit(path);
}

Status ReadCheckpoint(const std::string& path, CheckpointState* out) {
  CAME_CHECK(out != nullptr);
  io::SectionFileReader file;
  CAME_RETURN_IF_ERROR(file.Read(
      path, kMagic, kVersion,
      {kSectionModel, kSectionOptim, kSectionRngs, kSectionTrainer}));
  // Decode into a scratch state so a failure leaves `*out` untouched.
  CheckpointState s;
  CAME_RETURN_IF_ERROR(file.Decode(0, [&](ByteReader* r) {
    return tensor::ReadNamedTensors(r, &s.params);
  }));
  CAME_RETURN_IF_ERROR(
      file.Decode(1, [&](ByteReader* r) { return DecodeOptimSection(r, &s); }));
  CAME_RETURN_IF_ERROR(
      file.Decode(2, [&](ByteReader* r) { return DecodeRngSection(r, &s); }));
  CAME_RETURN_IF_ERROR(file.Decode(
      3, [&](ByteReader* r) { return DecodeTrainerSection(r, &s); }));
  *out = std::move(s);
  return Status::OK();
}

}  // namespace came::train
