// Format forward-guard for the checkpoint subsystem: a corrupted, truncated,
// version-skewed, or mis-walked image must fail loudly with CkptError —
// never UB, never silent partial state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/format.h"
#include "ckpt/payload_codec.h"
#include "pastry/message.h"

namespace vb::ckpt {
namespace {

std::vector<std::uint8_t> sample_image() {
  Writer w;
  w.begin_section("outer");
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);
  w.str("hello checkpoint");
  w.u128(U128{0x1111222233334444ull, 0x5555666677778888ull});
  w.begin_section("inner");
  w.u64(99);
  w.end_section();
  w.end_section();
  return w.finish();
}

TEST(CkptFormat, RoundTripsEveryPrimitive) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  r.enter_section("outer");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_TRUE(r.u128() == (U128{0x1111222233334444ull, 0x5555666677778888ull}));
  r.enter_section("inner");
  EXPECT_EQ(r.u64(), 99u);
  r.exit_section();
  r.exit_section();
  EXPECT_TRUE(r.at_end());
}

TEST(CkptFormat, ImageIsDeterministic) {
  EXPECT_EQ(sample_image(), sample_image());
}

TEST(CkptFormat, CorruptedByteFailsCrcUpFront) {
  std::vector<std::uint8_t> image = sample_image();
  // Flip one payload byte (well past magic/version so only the CRC notices).
  image[image.size() / 2] ^= 0x01;
  EXPECT_THROW({ Reader r(image); }, CkptError);
}

TEST(CkptFormat, EveryCorruptedPositionIsCaught) {
  const std::vector<std::uint8_t> good = sample_image();
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0xFF;
    EXPECT_THROW({ Reader r(bad); }, CkptError) << "byte " << i;
  }
}

TEST(CkptFormat, SkewedVersionIsRefused) {
  // Patch the version field (offset 4, little-endian) and fix up the CRC so
  // only the version check can object: the guard must hold even for an
  // otherwise pristine image from a newer writer, or from an older one whose
  // sections this build would misparse.
  for (std::uint32_t version : {kVersion + 1, kVersion - 1}) {
    std::vector<std::uint8_t> image = sample_image();
    image[4] = static_cast<std::uint8_t>(version);
    std::uint32_t crc = crc32(image.data(), image.size() - 4);
    for (int i = 0; i < 4; ++i) {
      image[image.size() - 4 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
    try {
      Reader r(image);
      ADD_FAILURE() << "version " << version << " accepted";
    } catch (const CkptError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CkptFormat, BadMagicIsRefused) {
  std::vector<std::uint8_t> image = sample_image();
  image[0] = 'X';
  EXPECT_THROW({ Reader r(image); }, CkptError);
}

TEST(CkptFormat, TruncationAtEveryLengthIsRefused) {
  const std::vector<std::uint8_t> good = sample_image();
  for (std::size_t n = 0; n < good.size(); ++n) {
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW({ Reader r(cut); }, CkptError) << "length " << n;
  }
}

TEST(CkptFormat, GarbageIsRefused) {
  std::vector<std::uint8_t> junk(256);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : junk) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  EXPECT_THROW({ Reader r(junk); }, CkptError);
}

TEST(CkptFormat, SectionNameMismatchThrows) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  EXPECT_THROW(r.enter_section("wrong"), CkptError);
}

TEST(CkptFormat, UnderconsumedSectionThrows) {
  std::vector<std::uint8_t> image = sample_image();
  Reader r(image);
  r.enter_section("outer");
  r.u8();
  EXPECT_THROW(r.exit_section(), CkptError);
}

TEST(CkptFormat, ReadPastSectionEndThrows) {
  Writer w;
  w.begin_section("s");
  w.u8(1);
  w.end_section();
  std::vector<std::uint8_t> image = w.finish();
  Reader r(image);
  r.enter_section("s");
  r.u8();
  EXPECT_THROW(r.u64(), CkptError);
}

struct UnregisteredPayload : pastry::Payload {
  std::size_t wire_bytes() const override { return 8; }
  std::string name() const override { return "test.unregistered"; }
};

TEST(CkptPayloadCodec, UnregisteredPayloadFailsLoudly) {
  Writer w;
  UnregisteredPayload p;
  EXPECT_THROW(PayloadCodec::encode(w, p), CkptError);

  // A decoder hitting a name nobody registered must throw, not crash.
  Writer w2;
  w2.str("test.unregistered");
  std::vector<std::uint8_t> image = w2.finish();
  Reader r(image);
  EXPECT_THROW(PayloadCodec::decode(r), CkptError);
}

}  // namespace
}  // namespace vb::ckpt
