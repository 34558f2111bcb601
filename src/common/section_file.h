#ifndef CAME_COMMON_SECTION_FILE_H_
#define CAME_COMMON_SECTION_FILE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace came::io {

// The one on-disk framing every CamE file uses (DESIGN.md §8), all fields
// little-endian:
//
//   magic   8 bytes              -- names the format, e.g. "CAMECKP1"
//   version u32
//   count   u32                  -- number of sections
//   count × section:
//     id    u32 fourcc           -- fixed order per format
//     len   u64                  -- payload bytes
//     crc   u32                  -- CRC32 (io::Crc32) of the payload
//     payload
//   (no trailing bytes)

/// Section id: four ASCII characters, the first in the low byte, so the
/// id reads as text in a hex dump ("MODL" → 4d 4f 44 4c).
constexpr uint32_t FourCc(const char (&id)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(id[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(id[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(id[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(id[3])) << 24;
}

/// Appends the bytes of `value` in host order (every supported host is
/// little-endian).
template <typename T>
void AppendPod(std::string* buf, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over a byte span it does not own. Every read
/// past the end returns Corruption and leaves the cursor where it was.
class ByteReader {
 public:
  /// `context` prefixes every error message (e.g. the file and section).
  ByteReader(const char* data, size_t size, std::string context = "payload")
      : data_(data), size_(size), context_(std::move(context)) {}

  Status ReadRaw(void* out, size_t n);
  /// Zero-copy: points `*out` at the next `n` bytes and skips them.
  Status ReadSpan(size_t n, const char** out);

  template <typename T>
  Status ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(out, sizeof(T));
  }

  /// Corruption unless every byte has been read.
  Status ExpectEnd() const;

  size_t remaining() const { return size_ - pos_; }
  const std::string& context() const { return context_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string context_;
};

/// Builds a section file in memory and publishes it with WriteFileAtomic,
/// so `path` always holds either its previous contents or the whole new
/// file.
class SectionFileWriter {
 public:
  SectionFileWriter(const char (&magic)[9], uint32_t version);

  void AppendSection(uint32_t id, std::string_view payload);

  Status Commit(const std::string& path) const;

 private:
  std::string file_;
  uint32_t count_ = 0;
};

/// Reads a section file and validates all of its framing before any
/// payload is decoded.
class SectionFileReader {
 public:
  /// Reads `path` whole and checks, in order: the magic (Corruption), the
  /// version (InvalidArgument), that the file holds exactly `ids.size()`
  /// sections with exactly these ids in this order, that every length is
  /// at most 8 GiB and inside the file, every payload CRC, and that no
  /// byte follows the last section (all Corruption).
  Status Read(const std::string& path, const char (&magic)[9],
              uint32_t version, std::initializer_list<uint32_t> ids);

  /// Runs `decode` over the payload of section `index` and requires it to
  /// consume every byte.
  template <typename Fn>
  Status Decode(size_t index, Fn&& decode) const {
    ByteReader r = Section(index);
    CAME_RETURN_IF_ERROR(decode(&r));
    return r.ExpectEnd();
  }

 private:
  ByteReader Section(size_t index) const;

  struct Span {
    uint32_t id = 0;
    size_t offset = 0;
    size_t size = 0;
  };

  std::string path_;
  std::string file_;
  std::vector<Span> sections_;
};

}  // namespace came::io

#endif  // CAME_COMMON_SECTION_FILE_H_
