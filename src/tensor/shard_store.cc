#include "tensor/shard_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/logging.h"
#include "common/section_file.h"
#include "tensor/qgemm.h"

namespace came::tensor {

namespace {

// Manifest layout: an io section file (DESIGN.md §8), version 1, with
// three sections in this order:
//   META  u8 dtype (0 f32, 1 int8, 2 bf16), i64 rows, i64 dim,
//         i64 rows_per_shard, u8 sealed
//   CRCS  u64 num_shards, u32 slab payload CRC32 per shard (sealed only)
//   BNDS  PanelBoundTable::Encode bytes over the sealed contents; empty
//         while unsealed
// The bounds share the manifest's CRC framing and atomic publish with the
// slab CRCs they were computed beside, so they cannot go stale.
constexpr char kMagic[] = "CAMESHD1";
constexpr uint32_t kVersion = 1;
constexpr uint32_t kSectionMeta = io::FourCc("META");
constexpr uint32_t kSectionCrcs = io::FourCc("CRCS");
constexpr uint32_t kSectionBounds = io::FourCc("BNDS");
constexpr uint64_t kMaxShards = 1ULL << 24;

int64_t PadTo64(int64_t n) { return (n + 63) & ~int64_t{63}; }

std::string ManifestPath(const std::string& dir) { return dir + "/manifest"; }

int64_t ShardBytesDt(int64_t begin, int64_t end, int64_t dim,
                     ShardDtype dtype) {
  const int64_t rows = end - begin;
  switch (dtype) {
    case ShardDtype::kFp32:
      return rows * dim * static_cast<int64_t>(sizeof(float));
    case ShardDtype::kBf16:
      return rows * dim * static_cast<int64_t>(sizeof(uint16_t));
    case ShardDtype::kInt8:
      // int8 rows, padded so the per-row fp32 scale block that follows
      // is 64-byte aligned inside the mapping.
      return PadTo64(rows * dim) +
             rows * static_cast<int64_t>(sizeof(float));
  }
  CAME_CHECK(false) << "unknown shard dtype";
  return 0;
}

/// CRC32 of a slab file's payload via a transient read-only mapping (does
/// not disturb the store's residency set).
Result<uint32_t> SlabFileCrc(const std::string& path, int64_t bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(err));
  }
  if (st.st_size != bytes) {
    ::close(fd);
    return Status::Corruption(path + ": slab is " +
                              std::to_string(st.st_size) + " bytes, want " +
                              std::to_string(bytes));
  }
  if (bytes == 0) {
    ::close(fd);
    return uint32_t{0};
  }
  void* base =
      ::mmap(nullptr, static_cast<size_t>(bytes), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  const uint32_t crc = io::Crc32(base, static_cast<size_t>(bytes));
  ::munmap(base, static_cast<size_t>(bytes));
  return crc;
}

}  // namespace

std::string ShardDtypeName(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kFp32:
      return "fp32";
    case ShardDtype::kInt8:
      return "int8";
    case ShardDtype::kBf16:
      return "bf16";
  }
  return "unknown";
}

Result<ShardDtype> ParseShardDtype(const std::string& name) {
  if (name == "fp32") return ShardDtype::kFp32;
  if (name == "int8") return ShardDtype::kInt8;
  if (name == "bf16") return ShardDtype::kBf16;
  return Status::InvalidArgument("unknown dtype \"" + name +
                                 "\" (want fp32|int8|bf16)");
}

int64_t ShardStore::ShardByteSize(int64_t begin, int64_t end) const {
  return ShardBytesDt(begin, end, dim_, dtype_);
}

ShardStore::~ShardStore() { ReleaseAll(); }

void ShardStore::MoveFrom(ShardStore&& other) {
  // Moves require external serialisation (no concurrent readers on either
  // store), but the guarded fields still want their locks for the
  // analysis — uncontended by contract, so the cost is nil. The two locks
  // are taken one after the other, never nested: stores move in both
  // directions, so nesting would give each pair of mutexes two orders
  // (TSan reports that as a potential deadlock).
  uint64_t clock = 0;
  int64_t resident = 0;
  Stats stats;
  {
    came::MutexLock other_lock(&other.mu_);
    clock = other.clock_;
    resident = other.resident_count_;
    stats = other.stats_;
    other.resident_count_ = 0;
  }
  came::MutexLock lock(&mu_);
  clock_ = clock;
  resident_count_ = resident;
  stats_ = stats;
  dir_ = std::move(other.dir_);
  rows_ = other.rows_;
  dim_ = other.dim_;
  dtype_ = other.dtype_;
  rows_per_shard_ = other.rows_per_shard_;
  max_resident_ = other.max_resident_;
  sealed_ = other.sealed_;
  shards_ = std::move(other.shards_);
  bounds_ = std::move(other.bounds_);
  other.shards_.clear();
  other.rows_ = other.dim_ = 0;
  other.bounds_ = PanelBoundTable();
}

ShardStore::ShardStore(ShardStore&& other) noexcept {
  MoveFrom(std::move(other));
}

ShardStore& ShardStore::operator=(ShardStore&& other) noexcept {
  if (this != &other) {
    ReleaseAll();
    MoveFrom(std::move(other));
  }
  return *this;
}

void ShardStore::ReleaseAll() {
  came::MutexLock lock(&mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].base != nullptr) {
      ::munmap(shards_[i].base,
               static_cast<size_t>(
                   ShardByteSize(shards_[i].begin, shards_[i].end)));
      shards_[i].base = nullptr;
    }
  }
  resident_count_ = 0;
  stats_.resident_shards = 0;
  stats_.resident_bytes = 0;
}

std::string ShardStore::SlabPath(int64_t shard) const {
  return dir_ + "/slab_" + std::to_string(shard) + ".bin";
}

Result<ShardStore> ShardStore::InRam(int64_t rows, int64_t dim) {
  return Anonymous(rows, dim, ShardDtype::kFp32);
}

Result<ShardStore> ShardStore::Anonymous(int64_t rows, int64_t dim,
                                         ShardDtype dtype) {
  if (rows <= 0 || dim <= 0) {
    return Status::InvalidArgument("ShardStore wants rows > 0 and dim > 0");
  }
  ShardStore s;
  s.rows_ = rows;
  s.dim_ = dim;
  s.dtype_ = dtype;
  s.rows_per_shard_ = rows;
  s.max_resident_ = 0;
  s.shards_.resize(1);
  Shard& sh = s.shards_[0];
  sh.begin = 0;
  sh.end = rows;
  const size_t bytes = static_cast<size_t>(s.ShardByteSize(0, rows));
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    return Status::IOError("anonymous mmap of " + std::to_string(bytes) +
                           " bytes: " + std::strerror(errno));
  }
  sh.base = base;
  {
    came::MutexLock lock(&s.mu_);
    s.resident_count_ = 1;
    s.stats_.resident_shards = 1;
    s.stats_.resident_bytes = static_cast<int64_t>(bytes);
  }
  return s;
}

Result<ShardStore> ShardStore::Create(const std::string& dir, int64_t rows,
                                      int64_t dim,
                                      const ShardStoreOptions& options) {
  if (rows <= 0 || dim <= 0) {
    return Status::InvalidArgument("ShardStore wants rows > 0 and dim > 0");
  }
  if (options.rows_per_shard < 0 || options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
  }
  {
    struct stat st {};
    if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
      return Status::InvalidArgument(dir +
                                     " already holds a shard store manifest");
    }
  }
  ShardStore s;
  s.dir_ = dir;
  s.rows_ = rows;
  s.dim_ = dim;
  s.rows_per_shard_ =
      options.rows_per_shard == 0 ? rows : options.rows_per_shard;
  s.max_resident_ = options.max_resident_shards;
  const int64_t n_shards =
      (rows + s.rows_per_shard_ - 1) / s.rows_per_shard_;
  s.shards_.resize(static_cast<size_t>(n_shards));
  for (int64_t i = 0; i < n_shards; ++i) {
    Shard& sh = s.shards_[static_cast<size_t>(i)];
    sh.begin = i * s.rows_per_shard_;
    sh.end = std::min(rows, sh.begin + s.rows_per_shard_);
    const std::string path = s.SlabPath(i);
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC,
                          0644);
    if (fd < 0) {
      return Status::IOError("open " + path + ": " + std::strerror(errno));
    }
    // ftruncate reserves a sparse zero-filled payload without writing it.
    if (::ftruncate(fd, s.ShardByteSize(sh.begin, sh.end)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("ftruncate " + path + ": " + std::strerror(err));
    }
    ::close(fd);
  }
  CAME_RETURN_IF_ERROR(s.WriteManifest(/*sealed=*/false));
  return s;
}

Result<ShardStore> ShardStore::Open(const std::string& dir,
                                    const ShardStoreOptions& options) {
  io::SectionFileReader file;
  CAME_RETURN_IF_ERROR(file.Read(ManifestPath(dir), kMagic, kVersion,
                                 {kSectionMeta, kSectionCrcs, kSectionBounds}));
  ShardStore s;
  s.dir_ = dir;
  uint8_t sealed = 0;
  CAME_RETURN_IF_ERROR(file.Decode(0, [&](io::ByteReader* r) {
    uint8_t dtype_byte = 0;
    CAME_RETURN_IF_ERROR(r->ReadPod(&dtype_byte));
    if (dtype_byte > static_cast<uint8_t>(ShardDtype::kBf16)) {
      return Status::Corruption(dir + ": unknown slab dtype byte " +
                                std::to_string(dtype_byte));
    }
    s.dtype_ = static_cast<ShardDtype>(dtype_byte);
    CAME_RETURN_IF_ERROR(r->ReadPod(&s.rows_));
    CAME_RETURN_IF_ERROR(r->ReadPod(&s.dim_));
    CAME_RETURN_IF_ERROR(r->ReadPod(&s.rows_per_shard_));
    return r->ReadPod(&sealed);
  }));
  if (s.rows_ <= 0 || s.dim_ <= 0 || s.rows_per_shard_ <= 0 || sealed > 1) {
    return Status::Corruption(dir + ": implausible shard store geometry");
  }
  if (!sealed) {
    return Status::FailedPrecondition(
        dir + ": store is not sealed (crashed mid-write or still training); "
              "refusing to serve unverifiable data");
  }
  s.sealed_ = true;
  s.max_resident_ = options.max_resident_shards;
  CAME_RETURN_IF_ERROR(file.Decode(1, [&](io::ByteReader* r) {
    uint64_t n_shards = 0;
    CAME_RETURN_IF_ERROR(r->ReadPod(&n_shards));
    if (n_shards > kMaxShards || n_shards * sizeof(uint32_t) != r->remaining() ||
        static_cast<int64_t>(n_shards) !=
            (s.rows_ - 1) / s.rows_per_shard_ + 1) {
      return Status::Corruption(dir + ": slab CRC count mismatch");
    }
    s.shards_.resize(n_shards);
    for (uint64_t i = 0; i < n_shards; ++i) {
      Shard& sh = s.shards_[i];
      sh.begin = static_cast<int64_t>(i) * s.rows_per_shard_;
      sh.end = std::min(s.rows_, sh.begin + s.rows_per_shard_);
      CAME_RETURN_IF_ERROR(r->ReadPod(&sh.crc));
    }
    return Status::OK();
  }));
  CAME_RETURN_IF_ERROR(file.Decode(2, [&](io::ByteReader* r) {
    const size_t n = r->remaining();
    const char* payload = nullptr;
    CAME_RETURN_IF_ERROR(r->ReadSpan(n, &payload));
    Result<PanelBoundTable> bounds = PanelBoundTable::Decode(payload, n);
    if (!bounds.ok()) return bounds.status();
    if (bounds.value().rows() != s.rows_) {
      return Status::Corruption(dir + ": panel bounds cover " +
                                std::to_string(bounds.value().rows()) +
                                " rows, store has " + std::to_string(s.rows_));
    }
    s.bounds_ = std::move(bounds).value();
    return Status::OK();
  }));
  for (size_t i = 0; i < s.shards_.size(); ++i) {
    const Shard& sh = s.shards_[i];
    const std::string path = s.SlabPath(static_cast<int64_t>(i));
    if (options.verify_on_open) {
      Result<uint32_t> crc =
          SlabFileCrc(path, s.ShardByteSize(sh.begin, sh.end));
      if (!crc.ok()) return crc.status();
      if (crc.value() != sh.crc) {
        return Status::Corruption(path + ": slab checksum mismatch");
      }
    } else {
      struct stat st {};
      if (::stat(path.c_str(), &st) != 0) {
        return Status::IOError("stat " + path + ": " + std::strerror(errno));
      }
      if (st.st_size != s.ShardByteSize(sh.begin, sh.end)) {
        return Status::Corruption(path + ": slab size mismatch");
      }
    }
  }
  return s;
}

Result<ShardStore> ShardStore::Quantize(ShardStore* src,
                                        const std::string& dir,
                                        ShardDtype dtype,
                                        const ShardStoreOptions& options) {
  if (src == nullptr) {
    return Status::InvalidArgument("Quantize wants a source store");
  }
  if (src->dtype() != ShardDtype::kFp32) {
    return Status::InvalidArgument("Quantize wants an fp32 source store, got " +
                                   ShardDtypeName(src->dtype()));
  }
  if (dtype == ShardDtype::kFp32) {
    return Status::InvalidArgument(
        "Quantize target dtype must be int8 or bf16");
  }
  const bool in_ram = dir.empty();
  if (in_ram && !src->in_ram()) {
    return Status::InvalidArgument(
        "Quantize without a destination directory wants an in-RAM source");
  }
  if (options.max_resident_shards < 0) {
    return Status::InvalidArgument("negative shard-store option");
  }

  ShardStore s;
  if (in_ram) {
    Result<ShardStore> made = Anonymous(src->rows(), src->dim(), dtype);
    if (!made.ok()) return made.status();
    s = std::move(made).value();
  } else {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + dir + ": " + std::strerror(errno));
    }
    struct stat st {};
    if (::stat(ManifestPath(dir).c_str(), &st) == 0) {
      return Status::InvalidArgument(dir +
                                     " already holds a shard store manifest");
    }
    s.dir_ = dir;
    s.rows_ = src->rows();
    s.dim_ = src->dim();
    s.dtype_ = dtype;
    s.rows_per_shard_ = src->rows_per_shard();
    s.max_resident_ = options.max_resident_shards;
    s.shards_.resize(static_cast<size_t>(src->num_shards()));
  }

  // One slab at a time: read the fp32 rows from the source's mapping,
  // encode them straight into the slab payload (the anonymous mapping
  // itself when in RAM), and fold the *encoded* rows into the panel
  // bounds, so the bound is scale-aware rather than inherited from fp32.
  // On disk each payload is then written and its CRC recorded.
  PanelBoundTable bounds(s.rows_, kDefaultBoundBlockRows);
  std::string payload;
  for (int64_t i = 0; i < s.num_shards(); ++i) {
    Shard& sh = s.shards_[static_cast<size_t>(i)];
    sh.begin = i * s.rows_per_shard_;
    sh.end = std::min(s.rows_, sh.begin + s.rows_per_shard_);
    const int64_t srows = sh.end - sh.begin;
    const size_t bytes =
        static_cast<size_t>(s.ShardByteSize(sh.begin, sh.end));
    char* out = static_cast<char*>(sh.base);
    if (out == nullptr) {
      payload.assign(bytes, '\0');
      out = payload.data();
    }
    const float* rows = src->PanelRows(sh.begin, sh.end);
    Status st;
    if (dtype == ShardDtype::kInt8) {
      int8_t* codes = reinterpret_cast<int8_t*>(out);
      float* scales =
          reinterpret_cast<float*>(out + PadTo64(srows * s.dim_));
      st = qgemm::QuantizeRowsInt8(rows, srows, s.dim_, codes, scales);
      if (st.ok()) {
        AccountRowsInt8(&bounds, codes, scales, /*bias=*/nullptr, sh.begin,
                        srows, s.dim_);
      }
    } else {
      uint16_t* enc = reinterpret_cast<uint16_t*>(out);
      st = qgemm::EncodeRowsBf16(rows, srows, s.dim_, enc);
      if (st.ok()) {
        AccountRowsBf16(&bounds, enc, /*bias=*/nullptr, sh.begin, srows,
                        s.dim_);
      }
    }
    if (!st.ok()) {
      return Status::InvalidArgument("slab " + std::to_string(i) + ": " +
                                     st.message());
    }
    if (!in_ram) {
      CAME_RETURN_IF_ERROR(io::WriteFileAtomic(s.SlabPath(i), out, bytes));
      sh.crc = io::Crc32(out, bytes);
    }
  }
  s.bounds_ = std::move(bounds);
  if (in_ram) return s;
  // Slabs and CRCs are durable; publish the sealed manifest directly —
  // a quantized store is never served unsealed.
  CAME_RETURN_IF_ERROR(s.WriteManifest(/*sealed=*/true));
  return s;
}

Status ShardStore::WriteManifest(bool sealed) {
  CAME_CHECK(!sealed || !bounds_.empty()) << "sealing without panel bounds";
  std::string meta;
  io::AppendPod(&meta, static_cast<uint8_t>(dtype_));
  io::AppendPod(&meta, rows_);
  io::AppendPod(&meta, dim_);
  io::AppendPod(&meta, rows_per_shard_);
  io::AppendPod(&meta, static_cast<uint8_t>(sealed ? 1 : 0));
  std::string crcs;
  io::AppendPod(&crcs, static_cast<uint64_t>(shards_.size()));
  for (const Shard& sh : shards_) io::AppendPod(&crcs, sh.crc);

  io::SectionFileWriter file(kMagic, kVersion);
  file.AppendSection(kSectionMeta, meta);
  file.AppendSection(kSectionCrcs, crcs);
  file.AppendSection(kSectionBounds, sealed ? bounds_.Encode() : std::string());
  CAME_RETURN_IF_ERROR(file.Commit(ManifestPath(dir_)));
  sealed_ = sealed;
  return Status::OK();
}

Status ShardStore::ComputeBounds() {
  PanelBoundTable bounds(rows_, kDefaultBoundBlockRows);
  for (size_t i = 0; i < shards_.size(); ++i) {
    const int64_t begin = shards_[i].begin;
    const int64_t end = shards_[i].end;
    const int64_t n = end - begin;
    switch (dtype_) {
      case ShardDtype::kFp32:
        AccountRowsFp32(&bounds, PanelRows(begin, end), /*bias=*/nullptr,
                        begin, n, dim_);
        break;
      case ShardDtype::kInt8: {
        // Both pointers land in the same slab mapping, so the second
        // accessor is a residency hit and cannot evict the first.
        const int8_t* codes = QuantPanelRows(begin, end);
        const float* scales = PanelScales(begin, end);
        AccountRowsInt8(&bounds, codes, scales, /*bias=*/nullptr, begin, n,
                        dim_);
        break;
      }
      case ShardDtype::kBf16:
        AccountRowsBf16(&bounds, Bf16PanelRows(begin, end), /*bias=*/nullptr,
                        begin, n, dim_);
        break;
    }
  }
  bounds_ = std::move(bounds);
  return Status::OK();
}

Status ShardStore::MapShard(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  CAME_CHECK(sh.base == nullptr);
  // Make room under the residency budget first.
  while (max_resident_ > 0 && resident_count_ >= max_resident_) {
    int64_t victim = -1;
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].base != nullptr && shards_[i].pins == 0 &&
          shards_[i].last_use < oldest) {
        oldest = shards_[i].last_use;
        victim = static_cast<int64_t>(i);
      }
    }
    if (victim < 0) {
      // Every resident slab holds a pin lease; map past the budget rather
      // than stall the reader. Residency self-corrects: once pins drop,
      // the next map's eviction scan keeps reclaiming until under budget.
      ++stats_.pin_blocked_evictions;
      break;
    }
    UnmapShard(victim);
    ++stats_.evictions;
  }
  const std::string path = SlabPath(shard);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  void* base = ::mmap(nullptr, static_cast<size_t>(bytes),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  sh.base = base;
  ++resident_count_;
  ++stats_.map_misses;
  stats_.resident_shards = resident_count_;
  stats_.resident_bytes += bytes;
  return Status::OK();
}

void ShardStore::UnmapShard(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.base == nullptr) return;
  const int64_t bytes = ShardByteSize(sh.begin, sh.end);
  // MAP_SHARED dirty pages survive the unmap in the page cache; durability
  // and checksums are re-established by Seal().
  ::munmap(sh.base, static_cast<size_t>(bytes));
  sh.base = nullptr;
  --resident_count_;
  stats_.resident_shards = resident_count_;
  stats_.resident_bytes -= bytes;
}

Result<char*> ShardStore::Acquire(int64_t shard) {
  came::MutexLock lock(&mu_);
  return AcquireLocked(shard);
}

Result<char*> ShardStore::AcquireLocked(int64_t shard) {
  Shard& sh = shards_[static_cast<size_t>(shard)];
  if (sh.base == nullptr) {
    CAME_RETURN_IF_ERROR(MapShard(shard));
  } else {
    ++stats_.map_hits;
  }
  sh.last_use = ++clock_;
  return static_cast<char*>(sh.base);
}

char* ShardStore::AcquirePanel(int64_t begin, int64_t end,
                               int64_t* shard_out) {
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LE(end, rows_);
  const int64_t shard = ShardIndex(begin);
  CAME_CHECK_LE(end, shards_[static_cast<size_t>(shard)].end)
      << "panel crosses a shard boundary";
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  *shard_out = shard;
  return base.value();
}

int64_t ShardStore::PinPanel(int64_t begin, int64_t end) {
  CAME_CHECK_LT(begin, end);
  CAME_CHECK_GE(begin, 0);
  CAME_CHECK_LE(end, rows_);
  const int64_t shard = ShardIndex(begin);
  CAME_CHECK_LE(end, shards_[static_cast<size_t>(shard)].end)
      << "panel crosses a shard boundary";
  came::MutexLock lock(&mu_);
  Result<char*> base = AcquireLocked(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  ++shards_[static_cast<size_t>(shard)].pins;
  return shard;
}

void ShardStore::UnpinPanel(int64_t shard) {
  CAME_CHECK_GE(shard, 0);
  CAME_CHECK_LT(shard, num_shards());
  came::MutexLock lock(&mu_);
  Shard& sh = shards_[static_cast<size_t>(shard)];
  CAME_CHECK_GT(sh.pins, 0) << "unbalanced UnpinPanel";
  --sh.pins;
}

bool ShardStore::ShardResident(int64_t shard) const {
  CAME_CHECK_GE(shard, 0);
  CAME_CHECK_LT(shard, num_shards());
  came::MutexLock lock(&mu_);
  return shards_[static_cast<size_t>(shard)].base != nullptr;
}

const float* ShardStore::Row(int64_t r) {
  CAME_CHECK(dtype_ == ShardDtype::kFp32)
      << "fp32 row access on a " << ShardDtypeName(dtype_) << " store";
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const int64_t shard = ShardIndex(r);
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  return reinterpret_cast<const float*>(base.value()) +
         (r - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

float* ShardStore::MutableRow(int64_t r) {
  CAME_CHECK(dtype_ == ShardDtype::kFp32)
      << "quantized stores are immutable (dtype " << ShardDtypeName(dtype_)
      << ")";
  CAME_CHECK_GE(r, 0);
  CAME_CHECK_LT(r, rows_);
  const int64_t shard = ShardIndex(r);
  Result<char*> base = Acquire(shard);
  CAME_CHECK(base.ok()) << base.status().ToString();
  Shard& sh = shards_[static_cast<size_t>(shard)];
  sh.dirty = true;
  // Any bound computed before this write may now be an under-estimate;
  // drop back to the never-prune state until the next Seal recomputes.
  bounds_ = PanelBoundTable();
  if (sealed_ && !in_ram()) {
    // First mutation of a sealed store: publish an unsealed manifest so a
    // crash mid-update reads as "unsealed" rather than passing stale CRCs.
    const Status st = WriteManifest(/*sealed=*/false);
    CAME_CHECK(st.ok()) << st.ToString();
  }
  return reinterpret_cast<float*>(base.value()) + (r - sh.begin) * dim_;
}

const float* ShardStore::PanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kFp32)
      << "fp32 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const float*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

const int8_t* ShardStore::QuantPanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kInt8)
      << "int8 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const int8_t*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

const float* ShardStore::PanelScales(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kInt8)
      << "row scales on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  const Shard& sh = shards_[static_cast<size_t>(shard)];
  const char* scales = base + PadTo64((sh.end - sh.begin) * dim_);
  return reinterpret_cast<const float*>(scales) + (begin - sh.begin);
}

const uint16_t* ShardStore::Bf16PanelRows(int64_t begin, int64_t end) {
  CAME_CHECK(dtype_ == ShardDtype::kBf16)
      << "bf16 panel access on a " << ShardDtypeName(dtype_) << " store";
  int64_t shard = 0;
  const char* base = AcquirePanel(begin, end, &shard);
  return reinterpret_cast<const uint16_t*>(base) +
         (begin - shards_[static_cast<size_t>(shard)].begin) * dim_;
}

int64_t ShardStore::ShardEnd(int64_t row) const {
  CAME_CHECK_GE(row, 0);
  CAME_CHECK_LT(row, rows_);
  return shards_[static_cast<size_t>(ShardIndex(row))].end;
}

Status ShardStore::Seal() {
  if (in_ram()) return ComputeBounds();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    const int64_t bytes = ShardByteSize(sh.begin, sh.end);
    if (sh.base != nullptr) {
      if (::msync(sh.base, static_cast<size_t>(bytes), MS_SYNC) != 0) {
        return Status::IOError("msync " + SlabPath(static_cast<int64_t>(i)) +
                               ": " + std::strerror(errno));
      }
      sh.crc = io::Crc32(sh.base, static_cast<size_t>(bytes));
    } else {
      // Evicted dirty pages live in the page cache; fsync makes them
      // durable, then a transient mapping yields the checksum.
      const std::string path = SlabPath(static_cast<int64_t>(i));
      const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
      if (fd < 0) {
        return Status::IOError("open " + path + ": " + std::strerror(errno));
      }
      if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        return Status::IOError("fsync " + path + ": " + std::strerror(err));
      }
      ::close(fd);
      Result<uint32_t> crc = SlabFileCrc(path, bytes);
      if (!crc.ok()) return crc.status();
      sh.crc = crc.value();
    }
    sh.dirty = false;
  }
  // Bounds stream through the panel accessors, which take mu_ themselves —
  // compute them before (and outside) the manifest publish.
  CAME_RETURN_IF_ERROR(ComputeBounds());
  return WriteManifest(/*sealed=*/true);
}

uint32_t ShardStore::ContentCrc32() {
  uint32_t crc = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = shards_[i];
    int64_t shard = 0;
    // Raw slab bytes, not PanelRows: the hash covers whatever encoding
    // the store carries (for fp32 that is the same bytes as before).
    const char* base = AcquirePanel(sh.begin, sh.end, &shard);
    crc = io::Crc32(
        base, static_cast<size_t>(ShardByteSize(sh.begin, sh.end)), crc);
  }
  return crc;
}

ShardStore::Stats ShardStore::GetStats() const {
  came::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace came::tensor
