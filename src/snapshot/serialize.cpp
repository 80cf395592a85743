#include "snapshot/serialize.hpp"

#include <array>

namespace baat::snapshot {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic bytewise table, and
/// tables[k][i] is the CRC contribution of byte i followed by k zero bytes,
/// so eight input bytes fold into the state with eight independent lookups.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  const CrcTables& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = detail::load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = detail::load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void SnapshotReader::throw_truncated(std::size_t n) const {
  throw SnapshotError("snapshot truncated: need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) + " but only " +
                      std::to_string(remaining()) + " remain");
}

std::size_t SnapshotReader::read_length(std::size_t elem_size) {
  const std::uint64_t n = read_u64();
  if (elem_size > 0 && n > remaining() / elem_size) {
    throw SnapshotError("snapshot corrupted: sequence of " + std::to_string(n) +
                        " elements at offset " + std::to_string(pos_) +
                        " exceeds the bytes remaining in the payload");
  }
  return static_cast<std::size_t>(n);
}

std::string SnapshotReader::read_string() {
  const std::size_t n = read_length(1);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

// read_length has already bounded each count by the bytes left, so the
// element loops below decode without a per-element bounds check.

std::vector<double> SnapshotReader::read_f64_vec() {
  const std::size_t n = read_length(8);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::bit_cast<double>(detail::load_le<std::uint64_t>(bytes_.data() + pos_ + 8 * i));
  }
  pos_ += 8 * n;
  return v;
}

std::vector<std::uint64_t> SnapshotReader::read_u64_vec() {
  const std::size_t n = read_length(8);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = detail::load_le<std::uint64_t>(bytes_.data() + pos_ + 8 * i);
  }
  pos_ += 8 * n;
  return v;
}

std::vector<std::uint8_t> SnapshotReader::read_u8_vec() {
  const std::size_t n = read_length(1);
  std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return v;
}

std::vector<bool> SnapshotReader::read_bool_vec() {
  const std::size_t n = read_length(1);
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = bytes_[pos_ + i] != 0;
  pos_ += n;
  return v;
}

}  // namespace baat::snapshot
