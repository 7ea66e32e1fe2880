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
// Each checkpointed type writes its layout once, in a `ckpt_io(io)` template
// that runs with a Writer on save and a Reader on restore.  Writer and
// Reader share their field methods (`u64(x)` writes x or reads into it) and
// combinators (section, seq, map, opt), and work that only restore does —
// refusing an image that contradicts the reconstruction, re-arming timers,
// rebuilding derived state — goes inside `loading(a)`.  The reader verifies
// each section name and that each section is consumed exactly, so any drift
// (truncation, corruption, schema skew) surfaces as a CkptError with a
// descriptive message, never as UB or silent partial state.
//
// All integers are little-endian and fixed-width; doubles are IEEE-754 bit
// patterns.  Container contents are emitted in deterministic (ordered) form
// by the components, so a checkpoint of a given sim state is byte-identical
// across runs and machines.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
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
  /// Layouts skip their `loading(a)` work when saving.
  static constexpr bool kLoading = false;

  Writer();

  void u8(std::uint8_t v) { buf_.push_back(v); }
  template <class E, class = std::enable_if_t<std::is_enum_v<E>>>
  void u8(E e) {
    u8(static_cast<std::uint8_t>(e));
  }
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

  // --- layout combinators, mirrored by Reader -----------------------------
  // Element and value callbacks take mutable references on both sides, so
  // one `ckpt_io` body serves save and restore.

  /// Runs `f` inside the named section.
  template <class F>
  void section(const char* name, F&& f) {
    begin_section(name);
    f();
    end_section();
  }
  /// A u32 count, then `f(element)` for each element in container order.
  template <class C, class F>
  void seq(C& c, F&& f) {
    u32(static_cast<std::uint32_t>(c.size()));
    for (auto& e : c) {
      if constexpr (std::is_const_v<std::remove_reference_t<decltype(e)>>) {
        auto copy = e;  // set elements are const
        f(copy);
      } else {
        f(e);
      }
    }
  }
  /// A u32 count, then `f(key, value)` for each entry in key order.  `f`
  /// gets a copy of the key.
  template <class M, class F>
  void map(M& m, F&& f) {
    u32(static_cast<std::uint32_t>(m.size()));
    for (auto& [k, v] : m) {
      typename M::key_type key = k;
      f(key, v);
    }
  }
  /// A presence flag, then `f(*o)` when `o` holds a value.
  template <class T, class F>
  void opt(std::optional<T>& o, F&& f) {
    boolean(o.has_value());
    if (o) f(*o);
  }
  /// Restore-only work; a Writer skips it.
  template <class A>
  void loading(A&&) {}

  /// Seals the image: all sections must be closed; appends the CRC and
  /// returns the buffer.  The Writer is spent afterwards.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  // offsets of unpatched length fields
};

class Reader {
 public:
  /// Layouts run their `loading(a)` work when restoring.
  static constexpr bool kLoading = true;

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

  // Field forms matching Writer's: each reads into `x`, converting to its
  // type the way the matching Writer call converted from it.
  template <class T>
  void u8(T& x) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    x = static_cast<T>(u8());
  }
  template <class T>
  void u32(T& x) {
    static_assert(std::is_integral_v<T>);
    x = static_cast<T>(u32());
  }
  template <class T>
  void u64(T& x) {
    static_assert(std::is_integral_v<T>);
    x = static_cast<T>(u64());
  }
  template <class T>
  void i64(T& x) {
    static_assert(std::is_integral_v<T>);
    x = static_cast<T>(i64());
  }
  void f64(double& x) { x = f64(); }
  void boolean(bool& x) { x = boolean(); }
  void str(std::string& x) { x = str(); }
  void u128(U128& x) { x = u128(); }

  /// Enters a section, verifying its name.
  void enter_section(const char* name);
  /// Leaves the innermost section, verifying it was consumed exactly.
  void exit_section();

  // --- layout combinators, mirroring Writer's -----------------------------

  template <class F>
  void section(const char* name, F&& f) {
    enter_section(name);
    f();
    exit_section();
  }
  /// Replaces `c`'s contents with the elements `f` reads into
  /// default-constructed values.  Each element is appended after its `f`
  /// returns, so while `f` runs `c` holds the elements read before it.
  template <class C, class F>
  void seq(C& c, F&& f) {
    std::uint32_t n = u32();
    c.clear();
    if constexpr (std::is_same_v<C, std::vector<typename C::value_type>>) {
      c.reserve(std::min<std::size_t>(n, end_ - pos_));  // >= 1 byte each
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      typename C::value_type e{};
      f(e);
      c.insert(c.end(), std::move(e));
    }
  }
  /// Replaces `m`'s contents with the entries `f` reads.
  template <class M, class F>
  void map(M& m, F&& f) {
    std::uint32_t n = u32();
    m.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename M::key_type k{};
      typename M::mapped_type v{};
      f(k, v);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  }
  template <class T, class F>
  void opt(std::optional<T>& o, F&& f) {
    if (boolean()) {
      f(o.emplace());
    } else {
      o.reset();
    }
  }
  /// Runs restore-only work.
  template <class A>
  void loading(A&& a) {
    a();
  }

  /// True when every byte before the CRC has been consumed.
  bool at_end() const { return pos_ == end_; }

 private:
  void need(std::size_t n, const char* what);

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;  // first CRC byte
  std::vector<std::pair<std::string, std::size_t>> open_;  // (name, end pos)
};

/// Saves `x` through its single layout, `x.ckpt_io(w)`.  A Writer only
/// reads the fields it is handed, so casting const away never writes.
template <class T>
void save(Writer& w, const T& x) {
  const_cast<T&>(x).ckpt_io(w);
}

}  // namespace vb::ckpt
