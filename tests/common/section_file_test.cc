#include "common/section_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/io.h"

namespace came::io {
namespace {

constexpr uint32_t kAaaa = FourCc("AAAA");
constexpr uint32_t kBbbb = FourCc("BBBB");

std::string TmpPath(const std::string& stem) {
  return ::testing::TempDir() + "came_section_file_" + stem + ".bin";
}

std::string Slurp(const std::string& path) {
  std::string out;
  EXPECT_TRUE(ReadFile(path, &out).ok()) << path;
  return out;
}

// Writes a two-section file: AAAA = "hello", BBBB = u64 42.
std::string WriteSample(const std::string& stem) {
  const std::string path = TmpPath(stem);
  std::string b;
  AppendPod(&b, uint64_t{42});
  SectionFileWriter file("TESTFMT1", 3);
  file.AppendSection(kAaaa, "hello");
  file.AppendSection(kBbbb, b);
  EXPECT_TRUE(file.Commit(path).ok());
  return path;
}

TEST(SectionFileTest, LayoutIsThePinnedFraming) {
  const std::string path = WriteSample("layout");
  const std::string bytes = Slurp(path);
  // magic 8 + version 4 + count 4, then two (4 + 8 + 4)-byte headers.
  ASSERT_EQ(bytes.size(), 16u + (16u + 5u) + (16u + 8u));
  EXPECT_EQ(bytes.substr(0, 8), "TESTFMT1");
  uint32_t version = 0;
  uint32_t count = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&count, bytes.data() + 12, 4);
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(bytes.substr(16, 4), "AAAA");
  uint64_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes.data() + 20, 8);
  std::memcpy(&crc, bytes.data() + 28, 4);
  EXPECT_EQ(len, 5u);
  EXPECT_EQ(crc, Crc32("hello", 5));
  EXPECT_EQ(bytes.substr(32, 5), "hello");
  EXPECT_EQ(bytes.substr(37, 4), "BBBB");
  std::remove(path.c_str());
}

TEST(SectionFileTest, ReaderHandsOutEachPayload) {
  const std::string path = WriteSample("roundtrip");
  SectionFileReader file;
  ASSERT_TRUE(file.Read(path, "TESTFMT1", 3, {kAaaa, kBbbb}).ok());
  std::string hello(5, '\0');
  ASSERT_TRUE(file.Decode(0, [&](ByteReader* r) {
                    return r->ReadRaw(hello.data(), hello.size());
                  }).ok());
  EXPECT_EQ(hello, "hello");
  uint64_t value = 0;
  ASSERT_TRUE(
      file.Decode(1, [&](ByteReader* r) { return r->ReadPod(&value); }).ok());
  EXPECT_EQ(value, 42u);
  std::remove(path.c_str());
}

TEST(SectionFileTest, DecodeRejectsUnreadBytes) {
  const std::string path = WriteSample("unread");
  SectionFileReader file;
  ASSERT_TRUE(file.Read(path, "TESTFMT1", 3, {kAaaa, kBbbb}).ok());
  uint32_t half = 0;
  const Status st =
      file.Decode(1, [&](ByteReader* r) { return r->ReadPod(&half); });
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  std::remove(path.c_str());
}

TEST(SectionFileTest, ReaderChecksMagicVersionAndIds) {
  const std::string path = WriteSample("header");
  SectionFileReader file;
  EXPECT_EQ(file.Read(path, "OTHERFM1", 3, {kAaaa, kBbbb}).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(file.Read(path, "TESTFMT1", 4, {kAaaa, kBbbb}).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(file.Read(path, "TESTFMT1", 3, {kBbbb, kAaaa}).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(file.Read(path, "TESTFMT1", 3, {kAaaa}).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(file.Read(TmpPath("never_written"), "TESTFMT1", 3, {kAaaa}).code(),
            Status::Code::kIOError);
  std::remove(path.c_str());
}

// Files from before the section framing were magic, u64 payload length,
// payload, u32 CRC: the reader sees the length's low word as a version.
// The error must name the version this build reads and say to re-create
// the file, not just echo the length back as "version 53".
TEST(SectionFileTest, OldLayoutNamesTheVersionThisBuildReads) {
  const std::string path = TmpPath("old_layout");
  const std::string payload(53, 'x');
  std::string bytes = "TESTFMT1";
  AppendPod(&bytes, static_cast<uint64_t>(payload.size()));
  bytes += payload;
  AppendPod(&bytes, Crc32(payload.data(), payload.size()));
  ASSERT_TRUE(WriteFileAtomic(path, bytes.data(), bytes.size()).ok());

  SectionFileReader file;
  const Status st = file.Read(path, "TESTFMT1", 3, {kAaaa});
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("declares version 53"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("this build reads version 3"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("re-created"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(ByteReaderTest, ReadsPastTheEndFailWithoutMoving) {
  const char data[6] = {1, 2, 3, 4, 5, 6};
  ByteReader r(data, sizeof(data), "probe");
  uint32_t word = 0;
  ASSERT_TRUE(r.ReadPod(&word).ok());
  EXPECT_EQ(r.remaining(), 2u);
  const Status st = r.ReadPod(&word);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("probe"), std::string::npos) << st.ToString();
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.ExpectEnd().ok());
  const char* span = nullptr;
  ASSERT_TRUE(r.ReadSpan(2, &span).ok());
  EXPECT_EQ(span, data + 4);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

}  // namespace
}  // namespace came::io
