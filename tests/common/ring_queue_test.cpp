#include "common/ring_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace p2plab {
namespace {

std::vector<int> contents(RingQueue<int>& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q[i]);
  return out;
}

TEST(RingQueue, FifoAcrossWrapAndGrowth) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 3; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();
  // The front now sits mid-buffer; growing must unroll in order.
  for (int i = 3; i < 12; ++i) q.push_back(i);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  int expect = 2;
  while (!q.empty()) {
    EXPECT_EQ(q.front(), expect++);
    q.pop_front();
  }
  EXPECT_EQ(expect, 12);
}

TEST(RingQueue, RotateOnPartialAndFullRing) {
  RingQueue<int> q;
  for (int i = 0; i < 3; ++i) q.push_back(i);  // 3 of 4 slots
  q.rotate();
  EXPECT_EQ(contents(q), (std::vector<int>{1, 2, 0}));
  q.push_back(3);  // full
  q.rotate();
  q.rotate();
  EXPECT_EQ(contents(q), (std::vector<int>{0, 3, 1, 2}));
  q.push_back(4);  // grows from a rotated full ring
  EXPECT_EQ(contents(q), (std::vector<int>{0, 3, 1, 2, 4}));
}

TEST(RingQueue, PopAndClearReleaseElements) {
  RingQueue<std::shared_ptr<int>> q;
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  std::weak_ptr<int> wa = a;
  std::weak_ptr<int> wb = b;
  q.push_back(std::move(a));
  q.push_back(std::move(b));
  q.pop_front();
  EXPECT_TRUE(wa.expired());
  EXPECT_FALSE(wb.expired());
  q.clear();
  EXPECT_TRUE(wb.expired());
  EXPECT_TRUE(q.empty());
  q.push_back(std::make_shared<int>(3));
  EXPECT_EQ(*q.front(), 3);
}

}  // namespace
}  // namespace p2plab
