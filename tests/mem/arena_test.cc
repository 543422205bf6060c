#include "src/mem/arena.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace espresso::mem {
namespace {

TEST(Arena, AllocReturnsWritableSpan) {
  Arena arena;
  std::span<float> s = arena.Alloc<float>(16);
  ASSERT_EQ(s.size(), 16u);
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<float>(i);
  }
  EXPECT_EQ(s[15], 15.0f);
}

TEST(Arena, AllocZeroedIsZero) {
  Arena arena;
  // Dirty the arena, rewind, and re-allocate: the zeroed variant must still be zero.
  auto dirty = arena.Alloc<uint8_t>(64);
  std::fill(dirty.begin(), dirty.end(), 0xFF);
  arena.Reset();
  std::span<uint8_t> s = arena.AllocZeroed<uint8_t>(64);
  for (uint8_t b : s) {
    ASSERT_EQ(b, 0);
  }
}

TEST(Arena, DistinctAllocationsDoNotOverlap) {
  Arena arena;
  std::span<float> a = arena.Alloc<float>(8);
  std::span<float> b = arena.Alloc<float>(8);
  EXPECT_GE(b.data(), a.data() + a.size());
}

TEST(Arena, RewindReusesStorageWithoutGrowth) {
  Arena arena(256);
  float* first = nullptr;
  for (int round = 0; round < 10; ++round) {
    Arena::Mark mark = arena.CurrentMark();
    std::span<float> s = arena.Alloc<float>(32);
    if (round == 0) {
      first = s.data();
    } else {
      // Same position every round: a rewound arena bumps from the same spot.
      EXPECT_EQ(s.data(), first);
    }
    arena.ResetTo(mark);
  }
  const size_t capacity_after_warmup = arena.bytes_capacity();
  for (int round = 0; round < 10; ++round) {
    ArenaScope scope(arena);
    arena.Alloc<float>(32);
  }
  EXPECT_EQ(arena.bytes_capacity(), capacity_after_warmup);
}

TEST(Arena, GrowsBeyondInitialBlock) {
  Arena arena(64);
  std::span<double> big = arena.Alloc<double>(1024);
  ASSERT_EQ(big.size(), 1024u);
  big[0] = 1.0;
  big[1023] = 2.0;
  EXPECT_EQ(big[0], 1.0);
  EXPECT_EQ(big[1023], 2.0);
  EXPECT_GE(arena.bytes_capacity(), 1024 * sizeof(double));
}

TEST(Arena, NestedScopesRewindInOrder) {
  Arena arena(128);
  std::span<int> outer;
  {
    ArenaScope s1(arena);
    outer = arena.Alloc<int>(4);
    outer[0] = 42;
    {
      ArenaScope s2(arena);
      std::span<int> inner = arena.Alloc<int>(4);
      inner[0] = 7;
    }
    // Inner scope rewound; outer span still valid.
    EXPECT_EQ(outer[0], 42);
    // The next allocation lands where the inner one did.
    std::span<int> again = arena.Alloc<int>(4);
    EXPECT_EQ(again.data(), outer.data() + outer.size());
  }
}

TEST(Arena, HighWaterTracksPeakUse) {
  Arena arena(64);
  EXPECT_EQ(arena.bytes_high_water(), 0u);
  {
    ArenaScope scope(arena);
    arena.Alloc<uint8_t>(100);
  }
  const size_t peak = arena.bytes_high_water();
  EXPECT_GE(peak, 100u);
  {
    ArenaScope scope(arena);
    arena.Alloc<uint8_t>(10);
  }
  EXPECT_EQ(arena.bytes_high_water(), peak);
}

TEST(Arena, AlignmentIsRespected) {
  Arena arena;
  arena.Alloc<uint8_t>(3);  // misalign the bump pointer
  std::span<double> d = arena.Alloc<double>(1);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d.data()) % alignof(double), 0u);
}

}  // namespace
}  // namespace espresso::mem
