// FIFO queue over a power-of-two circular buffer.
//
// std::deque allocates a node on construction and then one node per few
// hundred bytes pushed, freeing it again as the front drains past it, so a
// queue that cycles at a steady depth keeps calling the allocator. A
// RingQueue grows (doubling) only when it is full and reuses its slots
// from then on: at its peak depth it never allocates, and an unused queue
// owns no memory. Slots left by pop_front are reset to T{}, so owned
// resources (shared payloads, closures) are released as promptly as with
// a deque.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace p2plab {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  T& front() { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    (*this)[size_++] = std::move(value);
  }

  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Move the front element to the back (one round-robin step).
  void rotate() {
    if (size_ < slots_.size()) (*this)[size_] = std::move(front());
    // On a full ring the slot past the back is the front's own slot.
    head_ = (head_ + 1) & mask_;
  }

  /// Drop every element; the capacity is kept for reuse.
  void clear() {
    while (!empty()) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? 4 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace p2plab
