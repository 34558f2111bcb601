#include "infer/fused_embedding_table.h"

#include <utility>

#include "baselines/kgc_model.h"
#include "common/logging.h"
#include "common/section_file.h"
#include "tensor/tensor_codec.h"

namespace came::infer {

namespace {

// Layout: an io section file (DESIGN.md §8), version 1, with four
// sections in this order:
//   META  u32 name_len, name bytes, i64 N, i64 d
//   CAND  candidates tensor [N, d]
//   BIAS  bias tensor [N], or an empty {0} tensor
//   FOLD  folded rows tensor [N, d_f], or an empty {0} tensor
constexpr char kMagic[] = "CAMEFET1";
constexpr uint32_t kVersion = 1;

constexpr uint32_t kSectionMeta = io::FourCc("META");
constexpr uint32_t kSectionCandidates = io::FourCc("CAND");
constexpr uint32_t kSectionBias = io::FourCc("BIAS");
constexpr uint32_t kSectionFolded = io::FourCc("FOLD");

constexpr uint32_t kMaxNameLen = 4096;

std::string EncodeTensor(const tensor::Tensor& t) {
  std::string buf;
  tensor::AppendTensor(&buf, t);
  return buf;
}

}  // namespace

FusedEmbeddingTable::FusedEmbeddingTable(std::string model_name,
                                         tensor::Tensor candidates,
                                         tensor::Tensor bias,
                                         tensor::Tensor folded_rows)
    : model_name_(std::move(model_name)),
      candidates_(std::move(candidates)),
      bias_(std::move(bias)),
      folded_rows_(std::move(folded_rows)) {
  CAME_CHECK_EQ(candidates_.ndim(), 2) << "candidates must be [N, d]";
  if (bias_.numel() > 0) {
    CAME_CHECK_EQ(bias_.ndim(), 1);
    CAME_CHECK_EQ(bias_.dim(0), candidates_.dim(0));
  }
  if (folded_rows_.numel() > 0) {
    CAME_CHECK_EQ(folded_rows_.ndim(), 2);
    CAME_CHECK_EQ(folded_rows_.dim(0), candidates_.dim(0));
  }
}

FusedEmbeddingTable FusedEmbeddingTable::Build(
    baselines::InnerProductKgcModel* model) {
  CAME_CHECK(model != nullptr);
  CAME_CHECK(!model->training()) << "Build requires eval mode";
  // Clone the candidate matrix: the table is a frozen snapshot, and the
  // serving accessor aliases the live parameter buffer.
  return FusedEmbeddingTable(model->Name(),
                             model->ServingCandidates().Clone(),
                             model->ServingEntityBias().Clone(),
                             model->FoldEntityEncoders());
}

Status FusedEmbeddingTable::Save(const std::string& path) const {
  std::string meta;
  io::AppendPod(&meta, static_cast<uint32_t>(model_name_.size()));
  meta.append(model_name_);
  io::AppendPod(&meta, static_cast<int64_t>(num_entities()));
  io::AppendPod(&meta, static_cast<int64_t>(dim()));

  io::SectionFileWriter file(kMagic, kVersion);
  file.AppendSection(kSectionMeta, meta);
  file.AppendSection(kSectionCandidates, EncodeTensor(candidates_));
  file.AppendSection(kSectionBias, EncodeTensor(bias_));
  file.AppendSection(kSectionFolded, EncodeTensor(folded_rows_));
  return file.Commit(path);
}

Status FusedEmbeddingTable::Load(const std::string& path,
                                 FusedEmbeddingTable* out) {
  CAME_CHECK(out != nullptr);
  io::SectionFileReader file;
  CAME_RETURN_IF_ERROR(file.Read(
      path, kMagic, kVersion,
      {kSectionMeta, kSectionCandidates, kSectionBias, kSectionFolded}));

  std::string model_name;
  int64_t meta_n = 0;
  int64_t meta_d = 0;
  CAME_RETURN_IF_ERROR(file.Decode(0, [&](io::ByteReader* r) {
    uint32_t name_len = 0;
    CAME_RETURN_IF_ERROR(r->ReadPod(&name_len));
    if (name_len > kMaxNameLen) {
      return Status::Corruption(path + ": model name length out of range");
    }
    model_name.assign(name_len, '\0');
    CAME_RETURN_IF_ERROR(r->ReadRaw(model_name.data(), name_len));
    CAME_RETURN_IF_ERROR(r->ReadPod(&meta_n));
    return r->ReadPod(&meta_d);
  }));
  tensor::Tensor candidates;
  tensor::Tensor bias;
  tensor::Tensor folded;
  CAME_RETURN_IF_ERROR(file.Decode(1, [&](io::ByteReader* r) {
    return tensor::ReadTensor(r, &candidates);
  }));
  CAME_RETURN_IF_ERROR(file.Decode(
      2, [&](io::ByteReader* r) { return tensor::ReadTensor(r, &bias); }));
  CAME_RETURN_IF_ERROR(file.Decode(
      3, [&](io::ByteReader* r) { return tensor::ReadTensor(r, &folded); }));

  // Cross-section validation: the meta header must agree with the tensors.
  if (candidates.ndim() != 2) {
    return Status::Corruption(path + ": candidates must be rank 2");
  }
  if (candidates.dim(0) != meta_n || candidates.dim(1) != meta_d) {
    return Status::Corruption(path + ": meta/candidate shape mismatch");
  }
  if (bias.numel() > 0 &&
      (bias.ndim() != 1 || bias.dim(0) != candidates.dim(0))) {
    return Status::Corruption(path + ": bias shape mismatch");
  }
  if (folded.numel() > 0 &&
      (folded.ndim() != 2 || folded.dim(0) != candidates.dim(0))) {
    return Status::Corruption(path + ": folded rows shape mismatch");
  }

  *out = FusedEmbeddingTable(std::move(model_name), std::move(candidates),
                             std::move(bias), std::move(folded));
  return Status::OK();
}

void FusedEmbeddingTable::InstallFoldedRows(baselines::KgcModel* model) const {
  CAME_CHECK(model != nullptr);
  if (!has_folded_rows()) return;
  model->SetFoldedEncoderCache(folded_rows_.Clone());
}

}  // namespace came::infer
