#include "sim/inline_callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

namespace p2plab::sim {
namespace {

TEST(InlineCallback, DefaultAndNullptrAreEmpty) {
  InlineCallback empty;
  EXPECT_FALSE(empty);
  EXPECT_FALSE(empty.on_heap());
  InlineCallback null = nullptr;
  EXPECT_FALSE(null);
}

TEST(InlineCallback, SmallCaptureStaysInline) {
  int hits = 0;
  InlineCallback cb = [&hits] { ++hits; };
  ASSERT_TRUE(cb);
  EXPECT_FALSE(cb.on_heap());
  cb();
  cb();  // repeatedly invocable (PeriodicTask relies on this)
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, FullBudgetCaptureStaysInline) {
  // Exactly kInlineBytes of trivially-movable capture (the padding array
  // plus the captured pointer) must not fall back.
  std::array<char, InlineCallback::kInlineBytes - sizeof(int*)> block{};
  block[0] = 9;
  int out = 0;
  InlineCallback cb = [block, &out] { out = block[0]; };
  EXPECT_FALSE(cb.on_heap());
  cb();
  EXPECT_EQ(out, 9);
}

TEST(InlineCallback, OversizedCaptureFallsBackToHeapAndCounts) {
  const std::uint64_t before = InlineCallback::heap_fallbacks();
  std::array<char, InlineCallback::kInlineBytes + 1> big{};
  big[0] = 7;
  int out = 0;
  InlineCallback cb = [big, &out] { out = big[0]; };
  EXPECT_TRUE(cb.on_heap());
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);
  InlineCallback moved = std::move(cb);  // heap move is a pointer steal
  EXPECT_FALSE(cb);                      // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(out, 7);
  EXPECT_EQ(InlineCallback::heap_fallbacks(), before + 1);  // move is free
}

TEST(InlineCallback, EmplaceBuildsFromLambda) {
  auto p = std::make_unique<int>(5);
  int out = 0;
  InlineCallback cb = [&out] { out = -1; };
  cb.emplace([p = std::move(p), &out] { out = *p; });  // replaces the target
  EXPECT_FALSE(cb.on_heap());
  cb();
  EXPECT_EQ(out, 5);
}

TEST(InlineCallback, EmplaceRelocatesAnInlineCallback) {
  auto p = std::make_shared<int>(8);
  int out = 0;
  InlineCallback src = [p, &out] { out = *p; };
  EXPECT_EQ(p.use_count(), 2);
  InlineCallback dst;
  dst.emplace(std::move(src));
  EXPECT_FALSE(src);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(p.use_count(), 2);  // relocated, not copied
  dst();
  EXPECT_EQ(out, 8);
  dst = nullptr;
  EXPECT_EQ(p.use_count(), 1);
}

TEST(InlineCallback, CarriesMoveOnlyCapture) {
  auto p = std::make_unique<int>(41);
  int out = 0;
  InlineCallback cb = [p = std::move(p), &out] { out = *p + 1; };
  EXPECT_FALSE(cb.on_heap());
  InlineCallback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(out, 42);
}

TEST(InlineCallback, MoveAssignDestroysPreviousTarget) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> weak_first = first;
  InlineCallback cb = [t = std::move(first)] {};
  EXPECT_FALSE(weak_first.expired());
  cb = [] {};
  EXPECT_TRUE(weak_first.expired());
  ASSERT_TRUE(cb);
}

TEST(InlineCallback, NullptrAssignReleasesCaptures) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> weak = token;
  InlineCallback cb = [t = std::move(token)] {};
  cb = nullptr;
  EXPECT_TRUE(weak.expired());
  EXPECT_FALSE(cb);
}

TEST(InlineCallback, DestructionReleasesHeapTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> weak = token;
  {
    std::array<char, 2 * InlineCallback::kInlineBytes> pad{};
    InlineCallback cb = [t = std::move(token), pad] { (void)pad; };
    EXPECT_TRUE(cb.on_heap());
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace p2plab::sim
