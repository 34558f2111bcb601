#include "common/section_file.h"

#include <cstring>

#include "common/io.h"
#include "common/logging.h"

namespace came::io {

namespace {

constexpr size_t kMagicBytes = 8;
constexpr size_t kCountOffset = kMagicBytes + sizeof(uint32_t);
// Cap on one section's declared length: larger than any real payload,
// small enough that a corrupt length cannot drive a huge allocation.
constexpr uint64_t kMaxSectionBytes = 1ULL << 33;  // 8 GiB

std::string FourCcName(uint32_t id) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xff);
    if (c >= 0x20 && c < 0x7f) name[static_cast<size_t>(i)] = c;
  }
  return name;
}

}  // namespace

Status ByteReader::ReadSpan(size_t n, const char** out) {
  if (n > size_ - pos_) {
    return Status::Corruption(context_ + ": truncated at byte " +
                              std::to_string(pos_));
  }
  *out = data_ + pos_;
  pos_ += n;
  return Status::OK();
}

Status ByteReader::ReadRaw(void* out, size_t n) {
  const char* src = nullptr;
  CAME_RETURN_IF_ERROR(ReadSpan(n, &src));
  // An empty tensor's data() may be null, which memcpy must never see.
  if (n > 0) std::memcpy(out, src, n);
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (pos_ != size_) {
    return Status::Corruption(context_ + ": " + std::to_string(size_ - pos_) +
                              " trailing bytes");
  }
  return Status::OK();
}

SectionFileWriter::SectionFileWriter(const char (&magic)[9],
                                     uint32_t version) {
  file_.append(magic, kMagicBytes);
  AppendPod(&file_, version);
  AppendPod(&file_, count_);  // rewritten by every AppendSection
}

void SectionFileWriter::AppendSection(uint32_t id, std::string_view payload) {
  ++count_;
  std::memcpy(file_.data() + kCountOffset, &count_, sizeof(count_));
  AppendPod(&file_, id);
  AppendPod(&file_, static_cast<uint64_t>(payload.size()));
  AppendPod(&file_, Crc32(payload.data(), payload.size()));
  file_.append(payload);
}

Status SectionFileWriter::Commit(const std::string& path) const {
  return WriteFileAtomic(path, file_.data(), file_.size());
}

Status SectionFileReader::Read(const std::string& path,
                               const char (&magic)[9], uint32_t version,
                               std::initializer_list<uint32_t> ids) {
  path_ = path;
  sections_.clear();
  CAME_RETURN_IF_ERROR(ReadFile(path, &file_));
  ByteReader r(file_.data(), file_.size(), path);

  char got_magic[kMagicBytes];
  CAME_RETURN_IF_ERROR(r.ReadRaw(got_magic, sizeof(got_magic)));
  if (std::memcmp(got_magic, magic, kMagicBytes) != 0) {
    return Status::Corruption(path + ": bad magic, want " +
                              std::string(magic, kMagicBytes));
  }
  uint32_t got_version = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&got_version));
  if (got_version != version) {
    // Files from before this framing carry a u64 payload length here, so
    // the "version" may be that length: name what this build reads.
    return Status::InvalidArgument(
        path + ": " + std::string(magic, kMagicBytes) +
        " file declares version " + std::to_string(got_version) +
        ", but this build reads version " + std::to_string(version) +
        "; a file written by an earlier build must be re-created");
  }
  uint32_t count = 0;
  CAME_RETURN_IF_ERROR(r.ReadPod(&count));
  if (count != ids.size()) {
    return Status::Corruption(path + ": expected " +
                              std::to_string(ids.size()) +
                              " sections, found " + std::to_string(count));
  }
  std::vector<Span> sections;
  sections.reserve(ids.size());
  for (const uint32_t want : ids) {
    Span s;
    uint64_t len = 0;
    uint32_t crc = 0;
    CAME_RETURN_IF_ERROR(r.ReadPod(&s.id));
    CAME_RETURN_IF_ERROR(r.ReadPod(&len));
    CAME_RETURN_IF_ERROR(r.ReadPod(&crc));
    if (s.id != want) {
      return Status::Corruption(path + ": section " +
                                std::to_string(sections.size()) + " is " +
                                FourCcName(s.id) + ", want " +
                                FourCcName(want));
    }
    if (len > kMaxSectionBytes || len > r.remaining()) {
      return Status::Corruption(path + ": section " + FourCcName(want) +
                                " length " + std::to_string(len) +
                                " out of range");
    }
    const char* payload = nullptr;
    s.size = static_cast<size_t>(len);
    CAME_RETURN_IF_ERROR(r.ReadSpan(s.size, &payload));
    if (Crc32(payload, s.size) != crc) {
      return Status::Corruption(path + ": CRC mismatch in section " +
                                FourCcName(want));
    }
    s.offset = static_cast<size_t>(payload - file_.data());
    sections.push_back(s);
  }
  CAME_RETURN_IF_ERROR(r.ExpectEnd());
  sections_ = std::move(sections);
  return Status::OK();
}

ByteReader SectionFileReader::Section(size_t index) const {
  CAME_CHECK_LT(index, sections_.size()) << "section index out of range";
  const Span& s = sections_[index];
  return ByteReader(file_.data() + s.offset, s.size,
                    path_ + " section " + FourCcName(s.id));
}

}  // namespace came::io
