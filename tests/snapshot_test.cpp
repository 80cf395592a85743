#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "snapshot/sections.hpp"
#include "snapshot/serialize.hpp"
#include "snapshot/snapshot.hpp"

namespace baat::snapshot {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("baat_snapshot_test_" + name)).string();
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, ScalarRoundTrip) {
  SnapshotWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEFu);
  w.write_u64(0xFFFFFFFFFFFFFFFFull);
  w.write_i64(-42);
  w.write_f64(3.141592653589793);
  w.write_bool(true);
  w.write_bool(false);
  w.write_string("hello\0world");  // embedded NUL truncates the literal; still round-trips
  w.write_string("");

  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.141592653589793);
  EXPECT_TRUE(r.read_bool());
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, DoublesTransportRawBits) {
  // Bit identity is the whole point: NaN payloads, signed zero, denormals
  // and the extremes must survive a round trip exactly.
  const double nan_payload =
      std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF0001ull});
  const std::vector<double> values = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(),
      nan_payload,
  };
  SnapshotWriter w;
  for (double v : values) w.write_f64(v);
  SnapshotReader r{w.bytes()};
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.read_f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Serialize, VectorRoundTrip) {
  SnapshotWriter w;
  w.write_f64_vec({1.5, -2.5, 0.0});
  w.write_u64_vec({7, 0, 0xFFFFFFFFFFFFFFFFull});
  w.write_u8_vec({1, 2, 3});
  w.write_bool_vec({true, false, true, true});
  w.write_f64_vec({});

  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_f64_vec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.read_u64_vec(), (std::vector<std::uint64_t>{7, 0, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_EQ(r.read_u8_vec(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.read_bool_vec(), (std::vector<bool>{true, false, true, true}));
  EXPECT_TRUE(r.read_f64_vec().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, ReaderUnderrunThrowsNotUB) {
  SnapshotWriter w;
  w.write_u32(1);
  SnapshotReader r{w.bytes()};
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u8(), SnapshotError);
  SnapshotReader r2{w.bytes()};
  EXPECT_THROW(r2.read_u64(), SnapshotError);  // partial bytes available
}

TEST(Serialize, CorruptedLengthPrefixCannotDriveHugeAllocation) {
  // A length prefix claiming more elements than there are bytes left must
  // fail before materializing the vector, not after a multi-GB reserve.
  SnapshotWriter w;
  w.write_u64(0x7FFFFFFFFFFFFFFFull);  // absurd element count, no payload
  SnapshotReader r{w.bytes()};
  EXPECT_THROW(r.read_f64_vec(), SnapshotError);
}

TEST(Serialize, Crc32KnownAnswer) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
}

/// Bytewise CRC-32 (one table lookup per byte), kept here as the reference
/// the production slicing-by-8 loop must match exactly.
std::uint32_t crc32_bytewise_step(std::uint32_t c, std::uint8_t b) {
  c ^= b;
  for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  return c;
}

TEST(Serialize, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLen = 4097;
  std::vector<std::uint8_t> buf(kMaxLen + 8);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    // The reference runs once per start offset; its state after `len`
    // bytes is the CRC of the first `len` bytes.
    std::uint32_t ref = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::span<const std::uint8_t> bytes(buf.data() + start, len);
      ASSERT_EQ(crc32(bytes), ref ^ 0xFFFFFFFFu) << "start " << start << " length " << len;
      if (len < kMaxLen) ref = crc32_bytewise_step(ref, buf[start + len]);
    }
  }
}

TEST(Serialize, WriterGoldenBytes) {
  // The on-disk layout, pinned byte for byte: little-endian scalars, raw
  // IEEE-754 bits, u64 length prefixes and one byte per bool.
  using Bytes = std::vector<std::uint8_t>;
  const auto bytes_of = [](auto&& write) {
    SnapshotWriter w;
    write(w);
    return w.bytes();
  };
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_u8(0xAB); }), (Bytes{0xAB}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_u32(0x01020304u); }),
            (Bytes{0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_u64(0x0102030405060708ull); }),
            (Bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_i64(-2); }),
            (Bytes{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_f64(1.0); }),
            (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_f64(-0.0); }),
            (Bytes{0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) {
              w.write_f64(std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF0001ull}));
            }),
            (Bytes{0x01, 0x00, 0xEF, 0xBE, 0xAD, 0xDE, 0xF8, 0x7F}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) {
              w.write_bool(true);
              w.write_bool(false);
            }),
            (Bytes{1, 0}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_string("ab"); }),
            (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_f64_vec({2.0, -0.0}); }),
            (Bytes{2, 0, 0, 0, 0, 0, 0, 0,  //
                   0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_u64_vec({0x0102u}); }),
            (Bytes{1, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x01, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_u8_vec({7, 0xFF}); }),
            (Bytes{2, 0, 0, 0, 0, 0, 0, 0, 7, 0xFF}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_bool_vec({true, false, true}); }),
            (Bytes{3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1}));
  EXPECT_EQ(bytes_of([](SnapshotWriter& w) { w.write_f64_vec({}); }), (Bytes(8, 0)));
}

TEST(Serialize, ClearKeepsNoBytesAndWritesAfresh) {
  SnapshotWriter w;
  w.write_u64_vec({1, 2, 3});
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  w.write_u32(5);
  EXPECT_EQ(w.bytes(), (std::vector<std::uint8_t>{5, 0, 0, 0}));
}

TEST(Serialize, TruncationAtEveryPrefixNamesTheOffset) {
  // One of every read, cut at every length: each prefix must throw the
  // message a user sees today, naming the byte offset where the read
  // failed. `fields` models the layout so the expected text is computed,
  // not copied from the implementation.
  struct Field {
    std::size_t size;      ///< scalar size, or 8 for a sequence's length prefix
    std::size_t elements;  ///< 0 for a scalar
    std::size_t elem_size;
  };
  SnapshotWriter w;
  w.write_u8(1);
  w.write_u32(2);
  w.write_u64(3);
  w.write_i64(-4);
  w.write_f64(0.5);
  w.write_bool(true);
  w.write_string("xyz");
  w.write_f64_vec({1.0, 2.0});
  w.write_u64_vec({9});
  w.write_u8_vec({1, 2});
  w.write_bool_vec({true, false, true});
  const std::vector<Field> fields = {{1, 0, 0}, {4, 0, 0}, {8, 0, 0}, {8, 0, 0},
                                     {8, 0, 0}, {1, 0, 0}, {8, 3, 1}, {8, 2, 8},
                                     {8, 1, 8}, {8, 2, 1}, {8, 3, 1}};
  const auto read_all = [](SnapshotReader& r) {
    r.read_u8();
    r.read_u32();
    r.read_u64();
    r.read_i64();
    r.read_f64();
    r.read_bool();
    r.read_string();
    r.read_f64_vec();
    r.read_u64_vec();
    r.read_u8_vec();
    r.read_bool_vec();
  };
  const std::vector<std::uint8_t>& full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::string expected;
    std::size_t at = 0;
    for (const Field& f : fields) {
      if (at + f.size > len) {
        expected = "snapshot truncated: need " + std::to_string(f.size) + " bytes at offset " +
                   std::to_string(at) + " but only " + std::to_string(len - at) + " remain";
        break;
      }
      at += f.size;
      if (f.elements * f.elem_size > len - at) {
        expected = "snapshot corrupted: sequence of " + std::to_string(f.elements) +
                   " elements at offset " + std::to_string(at) +
                   " exceeds the bytes remaining in the payload";
        break;
      }
      at += f.elements * f.elem_size;
    }
    ASSERT_FALSE(expected.empty()) << "model covers " << at << " of " << full.size();
    SnapshotReader r{std::span<const std::uint8_t>(full.data(), len)};
    try {
      read_all(r);
      FAIL() << "truncation to " << len << " bytes went unnoticed";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "prefix length " << len;
    }
  }
  SnapshotReader r{full};
  read_all(r);
  EXPECT_TRUE(r.exhausted());
}

TEST(SnapshotFile, RoundTripAndHeader) {
  const std::string path = temp_path("roundtrip.snap");
  SnapshotWriter w;
  w.write_u64(1234);
  w.write_f64(0.25);
  write_snapshot_file(path, 0xABCDEF1234567890ull, w.bytes());

  // The atomic-commit tmp file must not linger after a successful write.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  const SnapshotHeader h = read_snapshot_header(path);
  EXPECT_EQ(h.version, kFormatVersion);
  EXPECT_EQ(h.config_hash, 0xABCDEF1234567890ull);
  EXPECT_EQ(h.payload_size, w.size());

  const std::vector<std::uint8_t> payload =
      read_snapshot_file(path, 0xABCDEF1234567890ull);
  EXPECT_EQ(payload, w.bytes());
  SnapshotReader r{payload};
  EXPECT_EQ(r.read_u64(), 1234u);
  EXPECT_DOUBLE_EQ(r.read_f64(), 0.25);
  fs::remove(path);
}

TEST(SnapshotFile, ZeroExpectedHashSkipsTheCheck) {
  const std::string path = temp_path("anyhash.snap");
  SnapshotWriter w;
  w.write_u8(9);
  write_snapshot_file(path, 777, w.bytes());
  EXPECT_EQ(read_snapshot_file(path, 0), w.bytes());
  fs::remove(path);
}

TEST(SnapshotFile, ConfigHashMismatchRefused) {
  const std::string path = temp_path("hashmismatch.snap");
  SnapshotWriter w;
  w.write_u8(9);
  write_snapshot_file(path, 111, w.bytes());
  try {
    read_snapshot_file(path, 222);
    FAIL() << "mismatched config hash must be refused";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("config hash"), std::string::npos) << msg;
  }
  fs::remove(path);
}

TEST(SnapshotFile, MissingFileIsReadableError) {
  try {
    read_snapshot_file(temp_path("does_not_exist.snap"), 0);
    FAIL() << "missing file must throw";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(SnapshotFile, BadMagicRefused) {
  const std::string path = temp_path("notasnapshot.snap");
  put_bytes(path, std::vector<std::uint8_t>(64, 0x55));
  try {
    read_snapshot_file(path, 0);
    FAIL() << "non-snapshot bytes must be refused";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
  fs::remove(path);
}

TEST(SnapshotFile, TruncationAtEveryPrefixIsAReadableError) {
  // Chop a valid snapshot at every length from 0 to full-minus-one byte;
  // each prefix must fail with SnapshotError, never read out of bounds
  // (this test earns its keep under ASan).
  const std::string path = temp_path("trunc_src.snap");
  SnapshotWriter w;
  w.write_u64(42);
  w.write_string("payload");
  write_snapshot_file(path, 5, w.bytes());
  const std::vector<std::uint8_t> full = file_bytes(path);
  ASSERT_GT(full.size(), 32u);

  const std::string cut = temp_path("trunc_cut.snap");
  for (std::size_t n = 0; n < full.size(); ++n) {
    put_bytes(cut, std::vector<std::uint8_t>(full.begin(), full.begin() + n));
    EXPECT_THROW(read_snapshot_file(cut, 5), SnapshotError) << "prefix length " << n;
  }
  fs::remove(path);
  fs::remove(cut);
}

TEST(SnapshotFile, TrailingPaddingRefused) {
  const std::string path = temp_path("padded.snap");
  SnapshotWriter w;
  w.write_u64(42);
  write_snapshot_file(path, 0, w.bytes());
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes.push_back(0x00);
  put_bytes(path, bytes);
  EXPECT_THROW(read_snapshot_file(path, 0), SnapshotError);
  fs::remove(path);
}

TEST(SnapshotFile, PayloadCorruptionCaughtByCrc) {
  const std::string path = temp_path("corrupt.snap");
  SnapshotWriter w;
  for (int i = 0; i < 16; ++i) w.write_f64(i * 1.25);
  write_snapshot_file(path, 0, w.bytes());
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[40] ^= 0x01;  // single bit flip inside the payload
  put_bytes(path, bytes);
  try {
    read_snapshot_file(path, 0);
    FAIL() << "flipped payload bit must be caught";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  fs::remove(path);
}

TEST(SnapshotFile, FutureFormatVersionRefused) {
  const std::string path = temp_path("version.snap");
  SnapshotWriter w;
  w.write_u8(1);
  write_snapshot_file(path, 0, w.bytes());
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[8] = static_cast<std::uint8_t>(kFormatVersion + 1);  // version is not CRC'd
  put_bytes(path, bytes);
  try {
    read_snapshot_file(path, 0);
    FAIL() << "future format version must be refused";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos);
  }
  fs::remove(path);
}

TEST(SnapshotFile, PreviousFormatVersionRefusedNamingBothVersions) {
  // v2 files carry the power tables' 1024-deep sample rings that v3 dropped;
  // reading one must be a clear refusal, never a misparse.
  const std::string path = temp_path("v2.snap");
  SnapshotWriter w;
  w.write_u8(1);
  write_snapshot_file(path, 0, w.bytes());
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[8] = 2;  // version is not CRC'd
  put_bytes(path, bytes);
  try {
    read_snapshot_file(path, 0);
    FAIL() << "a v2 snapshot must be refused";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("format version 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads version " + std::to_string(kFormatVersion)), std::string::npos)
        << msg;
  }
  fs::remove(path);
}

TEST(SnapshotFile, OverwriteIsAtomicReplace) {
  // Writing over an existing snapshot replaces it wholesale: afterwards the
  // file holds exactly the new payload and no tmp residue.
  const std::string path = temp_path("overwrite.snap");
  SnapshotWriter w1;
  w1.write_u64(1);
  write_snapshot_file(path, 10, w1.bytes());
  SnapshotWriter w2;
  w2.write_u64(2);
  w2.write_u64(3);
  write_snapshot_file(path, 20, w2.bytes());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(read_snapshot_header(path).config_hash, 20u);
  EXPECT_EQ(read_snapshot_file(path, 20), w2.bytes());
  fs::remove(path);
}

TEST(SnapshotFile, UnwritableDestinationIsReadableError) {
  const std::string path =
      temp_path("no_such_dir_for_snapshots") + "/nested/deep/file.snap";
  SnapshotWriter w;
  w.write_u8(1);
  EXPECT_THROW(write_snapshot_file(path, 0, w.bytes()), SnapshotError);
}

// ---- sectioned "BAATSECT" container (snapshot/sections.hpp) -------------

std::vector<std::uint8_t> payload_of(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> out;
  for (int b : bytes) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

void write_three_sections(const std::string& path, std::uint64_t hash) {
  SectionFileWriter w(path, hash, 3);
  w.append(payload_of({1, 2, 3}));
  w.append(payload_of({}));  // empty sections are legal
  w.append(payload_of({9, 8, 7, 6}));
  w.commit();
}

TEST(SectionFile, RoundTripsSectionsInOrder) {
  const std::string path = temp_path("sect_roundtrip.snap");
  write_three_sections(path, 0xFEED);
  SectionFileReader r(path, 0xFEED);
  EXPECT_EQ(r.header().version, kSectionFormatVersion);
  EXPECT_EQ(r.header().config_hash, 0xFEEDu);
  EXPECT_EQ(r.header().section_count, 3u);
  EXPECT_EQ(r.read_section(), payload_of({1, 2, 3}));
  EXPECT_EQ(r.read_section(), payload_of({}));
  EXPECT_EQ(r.read_section(), payload_of({9, 8, 7, 6}));
  r.finish();
  fs::remove(path);
}

TEST(SectionFile, BatchedWritesLayOutEverySectionInOrder) {
  // Many small sections, one past any staging size and an empty one: the
  // file must be exactly header + (size, CRC, payload) per section, the
  // same bytes whether a section was staged or written straight through.
  std::vector<std::vector<std::uint8_t>> sections;
  for (std::size_t i = 0; i < 40; ++i) {
    sections.emplace_back(3000 + 37 * i, static_cast<std::uint8_t>(i));
  }
  sections.emplace_back(200000, std::uint8_t{0x5A});
  sections.emplace_back();
  sections.emplace_back(5000, std::uint8_t{0xC3});
  const std::string path = temp_path("sect_batched.snap");
  {
    SectionFileWriter w(path, 0xBEEF, sections.size());
    for (const std::vector<std::uint8_t>& s : sections) w.append(s);
    w.commit();
  }
  SnapshotWriter expected;
  for (char c : std::string("BAATSECT")) expected.write_u8(static_cast<std::uint8_t>(c));
  expected.write_u32(kSectionFormatVersion);
  expected.write_u64(0xBEEF);
  expected.write_u64(sections.size());
  std::vector<std::uint8_t> want = expected.bytes();
  for (const std::vector<std::uint8_t>& s : sections) {
    SnapshotWriter prefix;
    prefix.write_u64(s.size());
    prefix.write_u32(crc32(s));
    want.insert(want.end(), prefix.bytes().begin(), prefix.bytes().end());
    want.insert(want.end(), s.begin(), s.end());
  }
  EXPECT_EQ(file_bytes(path), want);
  SectionFileReader r(path, 0xBEEF);
  for (const std::vector<std::uint8_t>& s : sections) EXPECT_EQ(r.read_section(), s);
  r.finish();
  fs::remove(path);
}

TEST(SectionFile, CommitDemandsTheDeclaredSectionCount) {
  const std::string path = temp_path("sect_short.snap");
  {
    SectionFileWriter w(path, 1, 2);
    w.append(payload_of({1}));
    EXPECT_THROW(w.commit(), SnapshotError);
  }
  // Uncommitted writer leaves no file behind (tmp removed, target untouched).
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SectionFile, AbandonedWriterPreservesThePreviousFile) {
  const std::string path = temp_path("sect_abandon.snap");
  write_three_sections(path, 5);
  {
    SectionFileWriter w(path, 5, 3);
    w.append(payload_of({42}));
    // destroyed without commit — simulated crash mid-checkpoint
  }
  SectionFileReader r(path, 5);
  EXPECT_EQ(r.read_section(), payload_of({1, 2, 3}));
  fs::remove(path);
}

TEST(SectionFile, ConfigHashMismatchRefusedAndZeroSkips) {
  const std::string path = temp_path("sect_hash.snap");
  write_three_sections(path, 1234);
  EXPECT_THROW(SectionFileReader(path, 999), SnapshotError);
  EXPECT_NO_THROW(SectionFileReader(path, 0));
  fs::remove(path);
}

TEST(SectionFile, PayloadCorruptionNamesTheSectionIndex) {
  const std::string path = temp_path("sect_crc.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[bytes.size() - 1] ^= 0xFF;  // last byte of section 2's payload
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  try {
    r.read_section();
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("section 2"), std::string::npos);
  }
  fs::remove(path);
}

TEST(SectionFile, TruncationAtEveryPrefixIsAReadableError) {
  const std::string path = temp_path("sect_trunc.snap");
  write_three_sections(path, 7);
  const std::vector<std::uint8_t> whole = file_bytes(path);
  for (std::size_t len = 0; len < whole.size(); ++len) {
    put_bytes(path, {whole.begin(), whole.begin() + static_cast<long>(len)});
    try {
      SectionFileReader r(path, 7);
      while (r.sections_read() < r.header().section_count) r.read_section();
      r.finish();
      FAIL() << "truncation to " << len << " bytes went unnoticed";
    } catch (const SnapshotError&) {
      // expected: every prefix must fail loudly, never crash or hang
    }
  }
  fs::remove(path);
}

TEST(SectionFile, TrailingGarbageRefusedByFinish) {
  const std::string path = temp_path("sect_trailing.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes.push_back(0);
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  r.read_section();
  EXPECT_THROW(r.finish(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, ReadingPastTheDeclaredCountThrows) {
  const std::string path = temp_path("sect_overread.snap");
  write_three_sections(path, 7);
  SectionFileReader r(path, 7);
  r.read_section();
  r.read_section();
  r.read_section();
  EXPECT_THROW(r.read_section(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, FinishBeforeAllSectionsReadThrows) {
  const std::string path = temp_path("sect_underread.snap");
  write_three_sections(path, 7);
  SectionFileReader r(path, 7);
  r.read_section();
  EXPECT_THROW(r.finish(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, CorruptedSizePrefixCannotDriveHugeAllocation) {
  const std::string path = temp_path("sect_hugesize.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  // Section 0's u64 size field starts right after the 28-byte header; stamp
  // an absurd size and make sure the reader errors instead of allocating.
  for (int i = 0; i < 8; ++i) bytes[28 + i] = 0xFF;
  put_bytes(path, bytes);
  SectionFileReader r(path, 7);
  EXPECT_THROW(r.read_section(), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, BadMagicAndVersionRefused) {
  const std::string path = temp_path("sect_magic.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[0] = 'X';
  put_bytes(path, bytes);
  EXPECT_THROW(SectionFileReader(path, 7), SnapshotError);
  bytes = file_bytes(path);
  bytes[0] = 'B';
  bytes[8] = 0xEE;  // version low byte
  put_bytes(path, bytes);
  EXPECT_THROW(SectionFileReader(path, 7), SnapshotError);
  fs::remove(path);
}

TEST(SectionFile, PreviousFormatVersionRefusedNamingBothVersions) {
  const std::string path = temp_path("sect_v1.snap");
  write_three_sections(path, 7);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  bytes[8] = 1;  // version low byte
  put_bytes(path, bytes);
  try {
    SectionFileReader r(path, 7);
    FAIL() << "a v1 sectioned snapshot must be refused";
  } catch (const SnapshotError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("format version 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reads version " + std::to_string(kSectionFormatVersion)),
              std::string::npos)
        << msg;
  }
  fs::remove(path);
}

}  // namespace
}  // namespace baat::snapshot
