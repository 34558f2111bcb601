// One corruption suite over every section file the library writes: the
// training checkpoint, module parameters, the fused serving table and the
// fp32 and int8 shard-store manifests. They all share one framing and one
// reader (common/section_file.h), so each case below must come back as a
// non-OK Status, and a failed load must leave its target untouched.
//
// Cases: every byte flipped (two bit masks), every truncation, one
// trailing byte, each section length set to 2^40, the section count off
// by one either way, and each pair of neighbouring sections swapped. The
// reader rejects all of these from the framing alone, before any payload
// is decoded; the last two cases re-frame one payload a byte short or
// long with a valid CRC, so the decoders' own checks (and their promise
// to leave the target untouched) are exercised too.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "infer/fused_embedding_table.h"
#include "nn/layers.h"
#include "tensor/shard_store.h"
#include "tensor/tensor.h"
#include "train/checkpoint.h"

namespace came {
namespace {

namespace fs = std::filesystem;

std::string ReadBytes(const std::string& path) {
  std::string out;
  EXPECT_TRUE(io::ReadFile(path, &out).ok()) << path;
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void AppendFloats(std::string* out, const tensor::Tensor& t) {
  out->append(reinterpret_cast<const char*>(t.data()),
              static_cast<size_t>(t.numel()) * sizeof(float));
}

tensor::Tensor Filled(tensor::Shape shape, float base) {
  tensor::Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  }
  return t;
}

// A file format under test. SetUp writes a valid file at path(); Load()
// reads it into a target object that starts out different from the file;
// Fingerprint() captures the target's whole state, so a failed load can
// be shown to have changed nothing.
class Format {
 public:
  virtual ~Format() = default;
  virtual void WriteGood() = 0;
  virtual std::string path() const = 0;
  virtual Status Load() = 0;
  virtual std::string Fingerprint() = 0;
};

class CheckpointFormat : public Format {
 public:
  explicit CheckpointFormat(std::string dir) : dir_(std::move(dir)) {
    target_ = State(100.0f);
  }

  void WriteGood() override {
    ASSERT_TRUE(train::WriteCheckpoint(path(), State(1.0f)).ok());
  }
  std::string path() const override { return dir_ + "/ckpt.bin"; }
  Status Load() override { return train::ReadCheckpoint(path(), &target_); }

  std::string Fingerprint() override {
    std::string fp;
    for (const auto& [name, t] : target_.params) {
      fp += name;
      AppendFloats(&fp, t);
    }
    fp += std::to_string(target_.adam_step);
    for (const auto& t : target_.adam_m) AppendFloats(&fp, t);
    for (const auto& t : target_.adam_v) AppendFloats(&fp, t);
    for (const Rng::State& st : target_.rng_streams) {
      for (uint64_t w : st.s) fp += std::to_string(w);
      fp += std::to_string(st.has_cached_normal) +
            std::to_string(st.cached_normal);
    }
    fp += std::to_string(target_.epochs_run) +
          std::to_string(target_.has_best) +
          std::to_string(target_.best.rank_sum) +
          std::to_string(target_.best.count);
    for (const auto& t : target_.best_snapshot) AppendFloats(&fp, t);
    return fp;
  }

 private:
  static train::CheckpointState State(float base) {
    train::CheckpointState s;
    s.params.emplace_back("emb.w", Filled({3, 4}, base));
    s.params.emplace_back("head.bias", Filled({4}, -base));
    s.adam_step = static_cast<int64_t>(base) + 16;
    s.adam_m = {Filled({3, 4}, base + 0.1f), Filled({4}, base + 0.2f)};
    s.adam_v = {Filled({3, 4}, base + 0.3f), Filled({4}, base + 0.4f)};
    Rng rng(static_cast<uint64_t>(base));
    for (int i = 0; i < 3; ++i) {
      rng.Normal();
      s.rng_streams.push_back(rng.GetState());
    }
    s.epochs_run = static_cast<int64_t>(base) + 4;
    s.has_best = true;
    s.best.rank_sum = 12.5 * base;
    s.best.count = 4;
    s.best_snapshot = {Filled({3, 4}, base + 7.0f), Filled({4}, base + 8.0f)};
    return s;
  }

  std::string dir_;
  train::CheckpointState target_;
};

class ModuleFormat : public Format {
 public:
  explicit ModuleFormat(std::string dir)
      : dir_(std::move(dir)), rng_(5), target_(4, 3, &rng_) {}

  void WriteGood() override {
    Rng rng(6);
    nn::Linear saved(4, 3, &rng);
    ASSERT_TRUE(saved.SaveParameters(path()).ok());
  }
  std::string path() const override { return dir_ + "/params.bin"; }
  Status Load() override { return target_.LoadParameters(path()); }

  std::string Fingerprint() override {
    std::string fp;
    for (const tensor::Tensor& t : target_.SnapshotParameters()) {
      AppendFloats(&fp, t);
    }
    return fp;
  }

 private:
  std::string dir_;
  Rng rng_;
  nn::Linear target_;
};

class FusedTableFormat : public Format {
 public:
  explicit FusedTableFormat(std::string dir)
      : dir_(std::move(dir)),
        target_("Target", Filled({2, 2}, 9.0f), tensor::Tensor(),
                tensor::Tensor()) {}

  void WriteGood() override {
    const infer::FusedEmbeddingTable table(
        "Good", Filled({4, 3}, -1.0f), Filled({4}, 0.5f), Filled({4, 5}, 2.0f));
    ASSERT_TRUE(table.Save(path()).ok());
  }
  std::string path() const override { return dir_ + "/table.bin"; }
  Status Load() override {
    return infer::FusedEmbeddingTable::Load(path(), &target_);
  }

  std::string Fingerprint() override {
    std::string fp = target_.model_name();
    AppendFloats(&fp, target_.candidates());
    AppendFloats(&fp, target_.bias());
    AppendFloats(&fp, target_.folded_rows());
    return fp;
  }

 private:
  std::string dir_;
  infer::FusedEmbeddingTable target_;
};

// The corrupted file is the store's manifest. Open returns a fresh store
// rather than filling a target, so "untouched" here means Open wrote
// nothing into the store's directory.
class ShardManifestFormat : public Format {
 public:
  ShardManifestFormat(std::string dir, tensor::ShardDtype dtype)
      : dir_(std::move(dir)), dtype_(dtype) {}

  void WriteGood() override {
    tensor::ShardStoreOptions opts;
    opts.rows_per_shard = 4;
    const std::string fp32_dir =
        dtype_ == tensor::ShardDtype::kFp32 ? store_dir() : dir_ + "/src";
    Result<tensor::ShardStore> made =
        tensor::ShardStore::Create(fp32_dir, 10, 3, opts);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    tensor::ShardStore& store = made.value();
    for (int64_t r = 0; r < store.rows(); ++r) {
      for (int64_t c = 0; c < store.dim(); ++c) {
        store.MutableRow(r)[c] = static_cast<float>(r * 10 + c) - 7.5f;
      }
    }
    ASSERT_TRUE(store.Seal().ok());
    if (dtype_ != tensor::ShardDtype::kFp32) {
      Result<tensor::ShardStore> q =
          tensor::ShardStore::Quantize(&store, store_dir(), dtype_);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
    }
  }
  std::string path() const override { return store_dir() + "/manifest"; }
  Status Load() override {
    return tensor::ShardStore::Open(store_dir()).status();
  }

  std::string Fingerprint() override {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(store_dir())) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    std::string fp;
    for (const std::string& name : names) {
      fp += name + ReadBytes(store_dir() + "/" + name);
    }
    return fp;
  }

 private:
  std::string store_dir() const { return dir_ + "/store"; }

  std::string dir_;
  tensor::ShardDtype dtype_;
};

struct FormatParam {
  const char* name;
  std::function<std::unique_ptr<Format>(const std::string& dir)> make;
};

void PrintTo(const FormatParam& param, std::ostream* os) { *os << param.name; }

// Offsets of each section header (id u32 | len u64 | crc u32 | payload)
// after the 16-byte file header.
std::vector<size_t> SectionOffsets(const std::string& file) {
  std::vector<size_t> offsets;
  size_t off = 16;
  while (off + 16 <= file.size()) {
    offsets.push_back(off);
    uint64_t len = 0;
    std::memcpy(&len, file.data() + off + 4, sizeof(len));
    off += 16 + static_cast<size_t>(len);
  }
  EXPECT_EQ(off, file.size()) << "sections do not tile the file";
  return offsets;
}

// Rebuilds `file` with section `index`'s payload replaced by `payload`,
// under a correct length and CRC.
std::string Reframe(const std::string& file, const std::vector<size_t>& offsets,
                    size_t index, const std::string& payload) {
  const size_t at = offsets[index];
  const size_t end =
      index + 1 < offsets.size() ? offsets[index + 1] : file.size();
  std::string framed = file.substr(at, 4);
  const uint64_t len = payload.size();
  const uint32_t crc = io::Crc32(payload.data(), payload.size());
  framed.append(reinterpret_cast<const char*>(&len), sizeof(len));
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  framed += payload;
  return file.substr(0, at) + framed + file.substr(end);
}

std::string Payload(const std::string& file, const std::vector<size_t>& offsets,
                    size_t index) {
  uint64_t len = 0;
  std::memcpy(&len, file.data() + offsets[index] + 4, sizeof(len));
  return file.substr(offsets[index] + 16, static_cast<size_t>(len));
}

class SectionFileCorruptionTest
    : public ::testing::TestWithParam<FormatParam> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "came_format_corruption_" +
           GetParam().name + "_" + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    format_ = GetParam().make(dir_);
    ASSERT_NO_FATAL_FAILURE(format_->WriteGood());
    good_ = ReadBytes(format_->path());
    sections_ = SectionOffsets(good_);
    ASSERT_FALSE(sections_.empty());
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Writes `bytes` over the file, loads it, and requires an error that
  // left the target as it was.
  void ExpectRejected(const std::string& bytes, const std::string& what) {
    WriteBytes(format_->path(), bytes);
    const std::string before = format_->Fingerprint();
    const Status st = format_->Load();
    EXPECT_FALSE(st.ok()) << what << " loaded";
    EXPECT_EQ(format_->Fingerprint(), before) << what << " changed the target";
  }

  std::string dir_;
  std::unique_ptr<Format> format_;
  std::string good_;
  std::vector<size_t> sections_;
};

TEST_P(SectionFileCorruptionTest, IntactFileLoads) {
  const Status st = format_->Load();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(SectionFileCorruptionTest, EveryByteFlipIsRejected) {
  for (size_t i = 0; i < good_.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string bad = good_;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      ExpectRejected(bad, "flip " + std::to_string(mask) + " at byte " +
                              std::to_string(i));
    }
  }
}

TEST_P(SectionFileCorruptionTest, EveryTruncationIsRejected) {
  for (size_t cut = 0; cut < good_.size(); ++cut) {
    ExpectRejected(good_.substr(0, cut), "truncation to " +
                                             std::to_string(cut) + " bytes");
  }
}

TEST_P(SectionFileCorruptionTest, TrailingByteIsRejected) {
  ExpectRejected(good_ + '\0', "one trailing byte");
}

TEST_P(SectionFileCorruptionTest, HugeSectionLengthIsRejected) {
  const uint64_t huge = uint64_t{1} << 40;
  for (size_t s = 0; s < sections_.size(); ++s) {
    std::string bad = good_;
    std::memcpy(bad.data() + sections_[s] + 4, &huge, sizeof(huge));
    ExpectRejected(bad, "section " + std::to_string(s) + " length 2^40");
  }
}

TEST_P(SectionFileCorruptionTest, SectionCountOffByOneIsRejected) {
  const uint32_t count = static_cast<uint32_t>(sections_.size());
  for (const uint32_t wrong : {count - 1, count + 1}) {
    std::string bad = good_;
    std::memcpy(bad.data() + 12, &wrong, sizeof(wrong));
    ExpectRejected(bad, "section count " + std::to_string(wrong));
  }
}

TEST_P(SectionFileCorruptionTest, SwappedSectionsAreRejected) {
  if (sections_.size() < 2) GTEST_SKIP() << "the format has one section";
  for (size_t s = 0; s + 1 < sections_.size(); ++s) {
    const size_t a = sections_[s];
    const size_t b = sections_[s + 1];
    const size_t end = s + 2 < sections_.size() ? sections_[s + 2]
                                                : good_.size();
    const std::string bad = good_.substr(0, a) + good_.substr(b, end - b) +
                            good_.substr(a, b - a) + good_.substr(end);
    ExpectRejected(bad, "sections " + std::to_string(s) + " and " +
                            std::to_string(s + 1) + " swapped");
  }
}

TEST_P(SectionFileCorruptionTest, ReframedShortPayloadIsRejected) {
  for (size_t s = 0; s < sections_.size(); ++s) {
    const std::string payload = Payload(good_, sections_, s);
    ASSERT_FALSE(payload.empty());
    ExpectRejected(Reframe(good_, sections_, s, payload.substr(1)),
                   "section " + std::to_string(s) + " a byte short");
  }
}

TEST_P(SectionFileCorruptionTest, ReframedLongPayloadIsRejected) {
  for (size_t s = 0; s < sections_.size(); ++s) {
    const std::string payload = Payload(good_, sections_, s);
    ExpectRejected(Reframe(good_, sections_, s, payload + '\0'),
                   "section " + std::to_string(s) + " a byte long");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SectionFileCorruptionTest,
    ::testing::Values(
        FormatParam{"checkpoint",
                    [](const std::string& dir) -> std::unique_ptr<Format> {
                      return std::make_unique<CheckpointFormat>(dir);
                    }},
        FormatParam{"module_params",
                    [](const std::string& dir) -> std::unique_ptr<Format> {
                      return std::make_unique<ModuleFormat>(dir);
                    }},
        FormatParam{"fused_table",
                    [](const std::string& dir) -> std::unique_ptr<Format> {
                      return std::make_unique<FusedTableFormat>(dir);
                    }},
        FormatParam{"shard_fp32",
                    [](const std::string& dir) -> std::unique_ptr<Format> {
                      return std::make_unique<ShardManifestFormat>(
                          dir, tensor::ShardDtype::kFp32);
                    }},
        FormatParam{"shard_int8",
                    [](const std::string& dir) -> std::unique_ptr<Format> {
                      return std::make_unique<ShardManifestFormat>(
                          dir, tensor::ShardDtype::kInt8);
                    }}),
    [](const ::testing::TestParamInfo<FormatParam>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace came
