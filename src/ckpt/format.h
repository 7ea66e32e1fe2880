// Versioned, CRC-guarded binary checkpoint format (see docs/ARCHITECTURE.md).
//
// Layout of a checkpoint image:
//
//   u32 magic   "VBCK"
//   u32 version kVersion — restore refuses any other value
//   ...nested named sections...
//   u32 crc32   over every preceding byte
//
// A section is `string name, u64 byte_length, <payload>`; sections nest.
// Save and restore are written as matched pairs walking the same component
// tree, so the reader verifies each section name and that each section is
// consumed exactly — any drift (truncation, corruption, schema skew, a
// component serializing more or less than it reads back) surfaces as a
// CkptError with a descriptive message, never as UB or silent partial state.
//
// All integers are little-endian and fixed-width; doubles are IEEE-754 bit
// patterns.  Container contents are emitted in deterministic (ordered) form
// by the components, so a checkpoint of a given sim state is byte-identical
// across runs and machines.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/u128.h"

namespace vb::ckpt {

/// Any structural problem with a checkpoint: bad magic, version skew, CRC
/// mismatch, truncation, section mismatch, or serialized state that
/// contradicts the reconstructed world.  Restore either completes fully or
/// throws this — never silent partial state.
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320), chainable via `crc`.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

inline constexpr std::uint32_t kMagic = 0x4B434256;  // "VBCK" little-endian
/// Bumped on every layout change (docs/ARCHITECTURE.md lists what each
/// version changed); readers refuse any other version rather than misparse
/// it.
inline constexpr std::uint32_t kVersion = 4;

class Writer {
 public:
  Writer();

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);
  void u128(const U128& v) {
    u64(v.hi());
    u64(v.lo());
  }

  /// Opens a named, length-prefixed section; sections nest.
  void begin_section(const char* name);
  /// Closes the innermost open section, patching its byte length.
  void end_section();

  /// Seals the image: all sections must be closed; appends the CRC and
  /// returns the buffer.  The Writer is spent afterwards.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  // offsets of unpatched length fields
};

class Reader {
 public:
  /// Verifies magic, version, and the trailing CRC up front; throws
  /// CkptError on any mismatch.  The buffer must outlive the Reader.
  explicit Reader(const std::vector<std::uint8_t>& image);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean();
  std::string str();
  U128 u128() {
    std::uint64_t hi = u64();
    std::uint64_t lo = u64();
    return U128{hi, lo};
  }

  /// Enters a section, verifying its name.
  void enter_section(const char* name);
  /// Leaves the innermost section, verifying it was consumed exactly.
  void exit_section();

  /// True when every byte before the CRC has been consumed.
  bool at_end() const { return pos_ == end_; }

 private:
  void need(std::size_t n, const char* what);

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;  // first CRC byte
  std::vector<std::pair<std::string, std::size_t>> open_;  // (name, end pos)
};

}  // namespace vb::ckpt
