#pragma once

// Versioned snapshot *files* (DESIGN.md §5f): the container around a
// serialized payload. Layout, all little-endian:
//
//   offset  size  field
//        0     8  magic "BAATSNAP"
//        8     4  format version (kFormatVersion)
//       12     8  config hash — fingerprint of the scenario that produced
//                 the state; resuming under a different scenario is refused
//       20     8  payload size in bytes
//       28     4  CRC-32 of the payload
//       32     n  payload (SnapshotWriter bytes)
//
// Files are committed atomically: the bytes are written to "<path>.tmp" and
// renamed over the destination, so a crash mid-write leaves either the old
// snapshot or none — never a half-written file that a later resume would
// trip over. Readers verify magic, version, config hash, declared size and
// CRC before handing out a single payload byte; every failure is a
// SnapshotError with a message naming the file and the mismatch.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "snapshot/serialize.hpp"

namespace baat::snapshot {

/// Bump whenever the payload layout changes; old files are refused with a
/// readable error rather than misinterpreted.
inline constexpr std::uint32_t kFormatVersion = 3;  // v3: power tables keep only the last reading time

/// The parsed container header (everything before the payload).
struct SnapshotHeader {
  std::uint32_t version = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_crc = 0;
};

/// The full container (header + payload) as a byte vector — what
/// write_snapshot_file puts on disk. Exposed so in-memory consumers (the
/// crash flight recorder bundles a snapshot among other files) share the
/// exact on-disk format.
std::vector<std::uint8_t> snapshot_container_bytes(std::uint64_t config_hash,
                                                   std::span<const std::uint8_t> payload);

/// Atomically writes `payload` to `path` (tmp file + rename). Throws
/// SnapshotError on any filesystem failure.
void write_snapshot_file(const std::string& path, std::uint64_t config_hash,
                         std::span<const std::uint8_t> payload);

/// Reads, validates and returns the payload of the snapshot at `path`.
/// Throws SnapshotError if the file is missing, truncated, corrupted, from
/// a different format version, or — unless `expected_config_hash` is 0 —
/// was produced under a different scenario fingerprint.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path,
                                             std::uint64_t expected_config_hash);

/// Parses and validates only the header (magic + version + size + CRC are
/// still checked against the file contents). Used by tools that want to
/// inspect a snapshot's provenance without loading state.
SnapshotHeader read_snapshot_header(const std::string& path);

}  // namespace baat::snapshot
