#pragma once

// Streamed sectioned snapshot container (DESIGN.md §5h).
//
// The flat "BAATSNAP" container (snapshot.hpp) serializes the whole sim
// state through one contiguous payload buffer; that is fine for a 48-cell
// cluster but a 100k-cell sharded datacenter would funnel hundreds of
// megabytes through a single vector and re-CRC the lot on every
// checkpoint. The "BAATSECT" container instead holds an ordered sequence
// of independently CRC-protected sections — section 0 is the global
// coordinator state, sections 1..N are one shard each — streamed to disk
// as they are produced, so peak memory stays one shard's payload and a
// corrupted shard is reported by index.
//
// Layout (all little-endian, same scalar encoding as serialize.hpp):
//   magic   "BAATSECT"                      8 bytes
//   version u32                             4
//   config  u64 scenario config hash        8
//   count   u64 number of sections          8
//   then per section:
//     size  u64 payload bytes
//     crc   u32 CRC-32 of the payload
//     payload
//
// Writing goes through a tmp file + atomic rename exactly like
// write_snapshot_file: a crash mid-checkpoint leaves the previous
// checkpoint intact, never a half-written file.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "snapshot/serialize.hpp"

namespace baat::snapshot {

/// Bump whenever a section payload layout changes (as for kFormatVersion).
inline constexpr std::uint32_t kSectionFormatVersion = 2;  // v2: power tables keep only the last reading time

/// Parsed "BAATSECT" file header.
struct SectionFileHeader {
  std::uint32_t version = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t section_count = 0;
};

/// Streams sections into `<path>.tmp`; commit() renames the tmp file over
/// `path` once every declared section has been appended. If the writer is
/// destroyed before commit() the tmp file is removed, so an exception
/// mid-checkpoint cannot clobber the previous good checkpoint.
class SectionFileWriter {
 public:
  /// Opens the tmp file and writes the header. `section_count` is declared
  /// up front so a truncated file is detectable without a trailer.
  SectionFileWriter(std::string path, std::uint64_t config_hash, std::uint64_t section_count);
  ~SectionFileWriter();

  SectionFileWriter(const SectionFileWriter&) = delete;
  SectionFileWriter& operator=(const SectionFileWriter&) = delete;

  /// Appends one section (size + CRC + payload). Small sections are staged
  /// and written out in batches of up to kStageBytes; an I/O error is
  /// reported naming the section.
  void append(std::span<const std::uint8_t> payload);

  /// Validates that exactly `section_count` sections were appended, writes
  /// out what is staged and checks the stream once, then atomically renames
  /// the tmp file over the target path.
  void commit();

 private:
  /// A shard section is a few KB, so one write call per section would
  /// dominate the I/O; sections are staged up to this many bytes instead.
  /// A 64 KiB std::filebuf buffer does not do this: libstdc++ sends every
  /// write of 1 KiB or more straight to the OS, so it still makes one
  /// system call per section.
  static constexpr std::size_t kStageBytes = 64 * 1024;

  void write_out(std::span<const std::uint8_t> bytes);

  std::string path_;
  std::string tmp_;
  std::ofstream out_;
  std::vector<std::uint8_t> staged_;  ///< header/sections not yet written
  std::uint64_t declared_ = 0;
  std::uint64_t written_ = 0;
  bool committed_ = false;
};

/// Reads a "BAATSECT" file section by section, CRC-checking each payload
/// as it is pulled, so only one section's bytes are resident at a time.
class SectionFileReader {
 public:
  /// Opens the file and validates magic/version/config hash. Pass
  /// `expected_config_hash == 0` to skip the config check (used by
  /// inspection tooling).
  SectionFileReader(std::string path, std::uint64_t expected_config_hash);

  [[nodiscard]] const SectionFileHeader& header() const { return header_; }
  [[nodiscard]] std::uint64_t sections_read() const { return read_; }

  /// Reads and CRC-checks the next section's payload. Throws SnapshotError
  /// if all declared sections were already consumed, on truncation, or on
  /// CRC mismatch (the message names the section index).
  std::vector<std::uint8_t> read_section();

  /// Throws unless every declared section was read and the file ends
  /// exactly there — trailing garbage means corruption.
  void finish();

 private:
  std::string path_;
  std::ifstream in_;
  SectionFileHeader header_;
  std::uint64_t read_ = 0;
};

}  // namespace baat::snapshot
