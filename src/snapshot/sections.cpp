#include "snapshot/sections.hpp"

#include <array>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace baat::snapshot {

namespace {

constexpr char kSectMagic[8] = {'B', 'A', 'A', 'T', 'S', 'E', 'C', 'T'};
constexpr std::size_t kSectHeaderSize = 28;
constexpr std::size_t kSectionPrefixSize = 12;  // u64 size + u32 crc

}  // namespace

SectionFileWriter::SectionFileWriter(std::string path, std::uint64_t config_hash,
                                     std::uint64_t section_count)
    : path_(std::move(path)), tmp_(path_ + ".tmp"), declared_(section_count) {
  // Unbuffered: staged_ already batches, and a second copy through the
  // stream's own buffer would buy nothing. Must be set before open().
  out_.rdbuf()->pubsetbuf(nullptr, 0);
  out_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw SnapshotError("cannot open '" + tmp_ + "' for writing");
  }
  SnapshotWriter header;
  for (char c : kSectMagic) header.write_u8(static_cast<std::uint8_t>(c));
  header.write_u32(kSectionFormatVersion);
  header.write_u64(config_hash);
  header.write_u64(section_count);
  staged_.reserve(kStageBytes);
  staged_.insert(staged_.end(), header.bytes().begin(), header.bytes().end());
}

SectionFileWriter::~SectionFileWriter() {
  if (!committed_) {
    out_.close();
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
  }
}

void SectionFileWriter::write_out(std::span<const std::uint8_t> bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

void SectionFileWriter::append(std::span<const std::uint8_t> payload) {
  if (committed_) {
    throw SnapshotError("snapshot '" + path_ + "' is already committed");
  }
  if (written_ == declared_) {
    throw SnapshotError("snapshot '" + path_ + "' declared " + std::to_string(declared_) +
                        " sections but more were appended");
  }
  SnapshotWriter prefix;
  prefix.write_u64(payload.size());
  prefix.write_u32(crc32(payload));
  const std::size_t section_bytes = kSectionPrefixSize + payload.size();
  if (staged_.size() + section_bytes > kStageBytes) {
    write_out(staged_);
    staged_.clear();
  }
  if (section_bytes <= kStageBytes) {
    staged_.insert(staged_.end(), prefix.bytes().begin(), prefix.bytes().end());
    staged_.insert(staged_.end(), payload.begin(), payload.end());
  } else {
    write_out(prefix.bytes());
    write_out(payload);
  }
  if (!out_) {
    throw SnapshotError("I/O error writing snapshot section " + std::to_string(written_) +
                        " to '" + tmp_ + "'");
  }
  ++written_;
}

void SectionFileWriter::commit() {
  if (committed_) {
    throw SnapshotError("snapshot '" + path_ + "' is already committed");
  }
  if (written_ != declared_) {
    throw SnapshotError("snapshot '" + path_ + "' declared " + std::to_string(declared_) +
                        " sections but only " + std::to_string(written_) + " were appended");
  }
  write_out(staged_);
  staged_.clear();
  out_.close();
  if (out_.fail()) {
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
    throw SnapshotError("I/O error finishing snapshot '" + tmp_ + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
    throw SnapshotError("cannot rename '" + tmp_ + "' to '" + path_ + "': " + ec.message());
  }
  committed_ = true;
}

SectionFileReader::SectionFileReader(std::string path, std::uint64_t expected_config_hash)
    : path_(std::move(path)) {
  in_.open(path_, std::ios::binary);
  if (!in_) {
    throw SnapshotError("cannot open snapshot file '" + path_ + "'");
  }
  std::array<std::uint8_t, kSectHeaderSize> raw{};
  in_.read(reinterpret_cast<char*>(raw.data()), static_cast<std::streamsize>(raw.size()));
  if (in_.gcount() != static_cast<std::streamsize>(kSectHeaderSize)) {
    throw SnapshotError("snapshot file '" + path_ + "' is truncated: " +
                        std::to_string(in_.gcount()) + " bytes, header needs " +
                        std::to_string(kSectHeaderSize));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    if (raw[i] != static_cast<std::uint8_t>(kSectMagic[i])) {
      throw SnapshotError("'" + path_ + "' is not a BAAT sectioned snapshot (bad magic)");
    }
  }
  SnapshotReader reader(std::span<const std::uint8_t>(raw).subspan(8));
  header_.version = reader.read_u32();
  header_.config_hash = reader.read_u64();
  header_.section_count = reader.read_u64();
  if (header_.version != kSectionFormatVersion) {
    throw SnapshotError("snapshot file '" + path_ + "' has format version " +
                        std::to_string(header_.version) + " but this build reads version " +
                        std::to_string(kSectionFormatVersion) +
                        "; re-run from scratch or use a matching build");
  }
  if (expected_config_hash != 0 && header_.config_hash != expected_config_hash) {
    char got[32];
    char want[32];
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(header_.config_hash));
    std::snprintf(want, sizeof want, "%016llx",
                  static_cast<unsigned long long>(expected_config_hash));
    throw SnapshotError("snapshot file '" + path_ + "' was produced under config hash " +
                        std::string(got) + " but the current scenario hashes to " + want +
                        "; resuming a different scenario is refused (same seed, shards, nodes, "
                        "days, policy, faults, demand and math mode are required)");
  }
}

std::vector<std::uint8_t> SectionFileReader::read_section() {
  if (read_ == header_.section_count) {
    throw SnapshotError("snapshot file '" + path_ + "' holds " +
                        std::to_string(header_.section_count) +
                        " sections but more were requested");
  }
  std::array<std::uint8_t, kSectionPrefixSize> prefix{};
  in_.read(reinterpret_cast<char*>(prefix.data()), static_cast<std::streamsize>(prefix.size()));
  if (in_.gcount() != static_cast<std::streamsize>(kSectionPrefixSize)) {
    throw SnapshotError("snapshot file '" + path_ + "' is truncated in section " +
                        std::to_string(read_) + " header");
  }
  SnapshotReader reader{std::span<const std::uint8_t>(prefix)};
  const std::uint64_t size = reader.read_u64();
  const std::uint32_t crc = reader.read_u32();
  std::vector<std::uint8_t> payload;
  // Grow in bounded chunks so a corrupted size field cannot drive a
  // multi-gigabyte allocation before the truncation is noticed.
  constexpr std::uint64_t kChunk = 1 << 20;
  std::uint64_t left = size;
  while (left > 0) {
    const std::uint64_t take = left < kChunk ? left : kChunk;
    const std::size_t base = payload.size();
    payload.resize(base + static_cast<std::size_t>(take));
    in_.read(reinterpret_cast<char*>(payload.data() + base),
             static_cast<std::streamsize>(take));
    if (in_.gcount() != static_cast<std::streamsize>(take)) {
      throw SnapshotError("snapshot file '" + path_ + "' is truncated: section " +
                          std::to_string(read_) + " declares " + std::to_string(size) +
                          " bytes but the file ends early");
    }
    left -= take;
  }
  if (crc32(payload) != crc) {
    throw SnapshotError("snapshot file '" + path_ + "' is corrupted: section " +
                        std::to_string(read_) + " CRC mismatch");
  }
  ++read_;
  return payload;
}

void SectionFileReader::finish() {
  if (read_ != header_.section_count) {
    throw SnapshotError("snapshot file '" + path_ + "' holds " +
                        std::to_string(header_.section_count) + " sections but only " +
                        std::to_string(read_) + " were read");
  }
  char extra = 0;
  in_.read(&extra, 1);
  if (in_.gcount() != 0) {
    throw SnapshotError("snapshot file '" + path_ + "' has trailing bytes after the last "
                        "section; the file is corrupted");
  }
}

}  // namespace baat::snapshot
