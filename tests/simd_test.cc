#include "common/simd.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/rng.h"

namespace parj::simd {
namespace {

/// Saves/restores the process-wide dispatch level around each test.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : saved_(ActiveLevel()) {
    SetActiveLevel(level);
  }
  ~ScopedLevel() { SetActiveLevel(saved_); }

 private:
  Level saved_;
};

std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (SupportedLevel() >= Level::kSse2) levels.push_back(Level::kSse2);
  if (SupportedLevel() >= Level::kAvx2) levels.push_back(Level::kAvx2);
  return levels;
}

/// Reference semantics, straight from the contract in simd.h.
size_t RefForwardStop(const std::vector<uint32_t>& a, size_t start,
                      uint32_t value) {
  for (size_t i = start; i < a.size(); ++i) {
    if (a[i] >= value) return i;
  }
  return a.size() - 1;
}

size_t RefBackwardStop(const std::vector<uint32_t>& a, size_t start,
                       uint32_t value) {
  for (size_t i = start + 1; i > 0; --i) {
    if (a[i - 1] <= value) return i - 1;
  }
  return 0;
}

TEST(SimdLevelTest, ParseLevelNames) {
  Level level;
  EXPECT_TRUE(ParseLevel("scalar", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("off", &level));
  EXPECT_EQ(level, Level::kScalar);
  EXPECT_TRUE(ParseLevel("sse2", &level));
  EXPECT_EQ(level, Level::kSse2);
  EXPECT_TRUE(ParseLevel("avx2", &level));
  EXPECT_EQ(level, Level::kAvx2);
  EXPECT_TRUE(ParseLevel("auto", &level));
  EXPECT_EQ(level, SupportedLevel());
  EXPECT_FALSE(ParseLevel("avx512", &level));
  EXPECT_FALSE(ParseLevel("", &level));
}

TEST(SimdLevelTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(LevelName(Level::kScalar), "scalar");
  EXPECT_STREQ(LevelName(Level::kSse2), "sse2");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

TEST(SimdLevelTest, SupportedNeverExceedsCompiled) {
  EXPECT_LE(SupportedLevel(), CompiledLevel());
  EXPECT_LE(ActiveLevel(), SupportedLevel());
}

TEST(SimdLevelTest, SetActiveLevelClampsToSupported) {
  const Level saved = ActiveLevel();
  const Level got = SetActiveLevel(Level::kAvx2);
  EXPECT_LE(got, SupportedLevel());
  EXPECT_EQ(got, ActiveLevel());
  EXPECT_EQ(SetActiveLevel(Level::kScalar), Level::kScalar);
  SetActiveLevel(saved);
}

TEST(SimdScanTest, ForwardStopMatchesReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    Rng rng(1);
    for (int round = 0; round < 2000; ++round) {
      const size_t n = 1 + rng.Uniform(200);
      std::vector<uint32_t> a(n);
      for (auto& x : a) {
        const uint64_t kind = rng.Uniform(10);
        x = kind == 0 ? 0
            : kind == 1 ? UINT32_MAX
                        : static_cast<uint32_t>(rng.Next());
      }
      std::sort(a.begin(), a.end());
      const size_t start = rng.Uniform(n);
      const uint32_t v = round % 3 == 0 ? a[rng.Uniform(n)]
                                        : static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(ScanForwardStop(a.data(), start, n, v),
                RefForwardStop(a, start, v))
          << LevelName(level) << " n=" << n << " start=" << start
          << " v=" << v;
    }
  }
}

TEST(SimdScanTest, BackwardStopMatchesReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    Rng rng(2);
    for (int round = 0; round < 2000; ++round) {
      const size_t n = 1 + rng.Uniform(200);
      std::vector<uint32_t> a(n);
      for (auto& x : a) {
        const uint64_t kind = rng.Uniform(10);
        x = kind == 0 ? 0
            : kind == 1 ? UINT32_MAX
                        : static_cast<uint32_t>(rng.Next());
      }
      std::sort(a.begin(), a.end());
      const size_t start = rng.Uniform(n);
      const uint32_t v = round % 3 == 0 ? a[rng.Uniform(n)]
                                        : static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(ScanBackwardStop(a.data(), start, v),
                RefBackwardStop(a, start, v))
          << LevelName(level) << " n=" << n << " start=" << start
          << " v=" << v;
    }
  }
}

TEST(SimdScanTest, AllEqualAndBoundaryArrays) {
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    // All-equal: forward stop is the start itself when value <= element.
    for (size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 64u}) {
      std::vector<uint32_t> eq(n, 1000);
      for (size_t start = 0; start < n; ++start) {
        EXPECT_EQ(ScanForwardStop(eq.data(), start, n, 1000), start);
        EXPECT_EQ(ScanBackwardStop(eq.data(), start, 1000), start);
        // Value above every element: forward parks on the last element.
        EXPECT_EQ(ScanForwardStop(eq.data(), start, n, 2000), n - 1);
        // Value below every element: backward parks on the first.
        EXPECT_EQ(ScanBackwardStop(eq.data(), start, 500), 0u);
      }
    }
  }
}

TEST(SimdScanTest, UnsignedCompareUsesFullRange) {
  // Values straddling INT32_MAX would invert under a signed compare.
  std::vector<uint32_t> a = {0, 100, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFF0u,
                             0xFFFFFFFFu};
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    EXPECT_EQ(ScanForwardStop(a.data(), 0, a.size(), 0x80000000u), 3u)
        << LevelName(level);
    EXPECT_EQ(ScanForwardStop(a.data(), 0, a.size(), 0xFFFFFFFFu), 5u)
        << LevelName(level);
    EXPECT_EQ(ScanBackwardStop(a.data(), a.size() - 1, 0x7FFFFFFFu), 2u)
        << LevelName(level);
    EXPECT_TRUE(ContainsU32(a.data(), a.size(), 0xFFFFFFFFu))
        << LevelName(level);
    EXPECT_FALSE(ContainsU32(a.data(), a.size(), 0xFFFFFFFEu))
        << LevelName(level);
  }
}

TEST(SimdContainsTest, MatchesLinearReferenceAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    Rng rng(3);
    for (int round = 0; round < 1000; ++round) {
      const size_t n = rng.Uniform(100);
      std::vector<uint32_t> a(n);
      for (auto& x : a) x = static_cast<uint32_t>(rng.Uniform(256));
      const uint32_t v = static_cast<uint32_t>(rng.Uniform(300));
      const bool ref = std::find(a.begin(), a.end(), v) != a.end();
      ASSERT_EQ(ContainsU32(a.data(), n, v), ref)
          << LevelName(level) << " n=" << n << " v=" << v;
    }
  }
}

TEST(SimdCrc32cTest, StandardVectorAtEveryLevel) {
  for (Level level : AvailableLevels()) {
    ScopedLevel scoped(level);
    EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u) << LevelName(level);
  }
  ScopedLevel scalar(Level::kScalar);
  EXPECT_FALSE(HardwareCrc32c());
}

// The hardware tier folds whole 8-byte words, then the tail byte by byte:
// every length and start alignment must match the table-driven tier,
// from a zero and a running CRC.
TEST(SimdCrc32cTest, EveryTierMatchesScalarAtEveryLengthAndAlignment) {
  Rng rng(32);
  std::vector<uint8_t> data(64 + 8);
  for (uint8_t& byte : data) byte = static_cast<uint8_t>(rng.Uniform(256));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        uint32_t expected;
        {
          ScopedLevel scalar(Level::kScalar);
          expected = Crc32cExtend(seed, data.data() + start, length);
        }
        for (Level level : AvailableLevels()) {
          ScopedLevel scoped(level);
          EXPECT_EQ(Crc32cExtend(seed, data.data() + start, length),
                    expected)
              << LevelName(level) << " start " << start << " length "
              << length;
        }
      }
    }
  }
}

}  // namespace
}  // namespace parj::simd
