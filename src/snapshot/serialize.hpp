#pragma once

// Binary serialization primitives for state snapshots (DESIGN.md §5f).
//
// Snapshots must round-trip the simulation state *bit-identically* — a
// resumed run has to reproduce the uninterrupted run byte-for-byte — so
// every scalar is written in a fixed little-endian layout and doubles are
// transported as their raw IEEE-754 bit patterns (std::bit_cast), never
// through text formatting. The writer appends to a growable byte buffer;
// the reader walks a borrowed byte span and throws SnapshotError (with a
// byte offset) on any underrun instead of reading past the end, so a
// truncated or corrupted file is a readable failure, never UB.
//
// This layer is deliberately dependency-free (pure std) and knows nothing
// about batteries or clusters: domain types serialize themselves via
// save_state(SnapshotWriter&) / load_state(SnapshotReader&) members living
// next to their private state.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace baat::snapshot {

/// Raised on any malformed snapshot: truncation, bad magic, CRC mismatch,
/// version or config-hash mismatch. The message is meant for the user.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

namespace detail {

// Little-endian words through shifts: portable, and a single move on x86,
// so there is no endian branch.

template <typename U>
std::uint8_t* store_le(std::uint8_t* out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + sizeof(U);
}

template <typename U>
U load_le(const std::uint8_t* p) {
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) v |= static_cast<U>(p[i]) << (8 * i);
  return v;
}

}  // namespace detail

/// Appends fixed-layout little-endian scalars to a byte buffer. Each scalar
/// grows the buffer once and is stored in place.
class SnapshotWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u32(std::uint32_t v) { append_le(v); }
  void write_u64(std::uint64_t v) { append_le(v); }
  void write_i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  /// Raw IEEE-754 bit pattern; NaN payloads and signed zeros survive.
  void write_f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  /// u64 length prefix + raw bytes.
  void write_string(std::string_view s) {
    write_u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void write_f64_vec(const std::vector<double>& v) {
    std::uint8_t* out = grow_for_vec(v.size(), 8);
    for (double x : v) out = detail::store_le(out, std::bit_cast<std::uint64_t>(x));
  }
  void write_u64_vec(const std::vector<std::uint64_t>& v) {
    std::uint8_t* out = grow_for_vec(v.size(), 8);
    for (std::uint64_t x : v) out = detail::store_le(out, x);
  }
  void write_u8_vec(const std::vector<std::uint8_t>& v) {
    write_u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void write_bool_vec(const std::vector<bool>& v) {
    std::uint8_t* out = grow_for_vec(v.size(), 1);
    for (bool b : v) *out++ = b ? 1 : 0;
  }

  /// Drops the bytes but keeps the capacity, so one writer can serialize a
  /// sequence of similar payloads without regrowing its buffer each time.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename U>
  void append_le(U v) {
    const std::size_t base = buf_.size();
    buf_.resize(base + sizeof(U));
    detail::store_le(buf_.data() + base, v);
  }
  /// Writes the u64 element count and resizes once for the elements;
  /// returns where the first element goes.
  std::uint8_t* grow_for_vec(std::size_t n, std::size_t elem_size) {
    write_u64(n);
    const std::size_t base = buf_.size();
    buf_.resize(base + n * elem_size);
    return buf_.data() + base;
  }

  std::vector<std::uint8_t> buf_;
};

/// Walks a borrowed byte span; throws SnapshotError on underrun. The span
/// must outlive the reader.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t read_u8() {
    require(1);
    return bytes_[pos_++];
  }
  std::uint32_t read_u32() { return take_le<std::uint32_t>(); }
  std::uint64_t read_u64() { return take_le<std::uint64_t>(); }
  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }
  double read_f64() { return std::bit_cast<double>(read_u64()); }
  bool read_bool() { return read_u8() != 0; }
  std::string read_string();

  std::vector<double> read_f64_vec();
  std::vector<std::uint64_t> read_u64_vec();
  std::vector<std::uint8_t> read_u8_vec();
  std::vector<bool> read_bool_vec();

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  /// True once every byte has been consumed; callers check this after a
  /// full load to catch trailing garbage.
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void require(std::size_t n) {
    if (remaining() < n) [[unlikely]] throw_truncated(n);
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;
  /// Length prefix for a sequence about to be materialized; bounds the
  /// claimed count by the bytes actually left so a corrupted length cannot
  /// drive a multi-gigabyte allocation before the underrun is noticed.
  std::size_t read_length(std::size_t elem_size);

  template <typename U>
  U take_le() {
    require(sizeof(U));
    const U v = detail::load_le<U>(bytes_.data() + pos_);
    pos_ += sizeof(U);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace baat::snapshot
