// SegStore: the segment storage engine under StepProfile.
//
// Structure-of-arrays with small-buffer optimization. Starts and values live
// in two parallel contiguous int64 arrays instead of an array of {start,
// value} pairs:
//
//  * SoA -- the profile hot paths are asymmetric: binary searches
//    (index_of) touch only starts, while the scan-heavy walks of the
//    windowed queries stream mostly values. Splitting the arrays halves
//    the cache traffic of both.
//  * SBO -- profiles of up to kInlineSegments segments live entirely inside
//    the object, so small profiles (the availability of an instance with a
//    few reservations, a small instance's schedule usage) never touch the
//    heap, while long-lived profiles spill once and then keep their block.
//
// Heap spills allocate with std::malloc + note_alloc(), never operator new,
// so binaries with the global alloc hook (bench/alloc_hook.cpp) count each
// heap event exactly once. A store never shrinks its heap block; capacity
// is the high-water mark, which is exactly what the steady-state service
// decision needs to stay allocation-free.
//
// The API is deliberately primitive -- indices, not iterators -- because
// StepProfile is its only intended client and every operation maps to one
// memmove/memcpy over the two arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/arena.hpp"
#include "core/types.hpp"

namespace resched {

class SegStore {
 public:
  // Inline capacity (see the header comment).
  static constexpr std::size_t kInlineSegments = 8;

  SegStore() noexcept = default;

  SegStore(const SegStore& other) { assign(other); }

  SegStore& operator=(const SegStore& other) {
    if (this != &other) assign(other);
    return *this;
  }

  SegStore(SegStore&& other) noexcept { steal(other); }

  SegStore& operator=(SegStore&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~SegStore() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  [[nodiscard]] Time start(std::size_t i) const noexcept { return times_[i]; }
  [[nodiscard]] std::int64_t value(std::size_t i) const noexcept {
    return values_[i];
  }
  void set_start(std::size_t i, Time t) noexcept { times_[i] = t; }
  void set_value(std::size_t i, std::int64_t v) noexcept { values_[i] = v; }
  void add_value(std::size_t i, std::int64_t delta) noexcept {
    // resched-lint: time-arith-audited(heights capacity-bounded; deltas validated upstream)
    values_[i] += delta;
  }
  [[nodiscard]] std::int64_t back_value() const noexcept {
    return values_[size_ - 1];
  }

  // Contiguous SoA views; valid until the next capacity change.
  [[nodiscard]] const Time* times_data() const noexcept { return times_; }
  [[nodiscard]] const std::int64_t* values_data() const noexcept {
    return values_;
  }
  [[nodiscard]] std::int64_t* values_data() noexcept { return values_; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(Time t, std::int64_t v) {
    if (size_ == cap_) grow(size_ + 1);
    times_[size_] = t;
    values_[size_] = v;
    ++size_;
  }

  void insert(std::size_t pos, Time t, std::int64_t v) {
    if (size_ == cap_) grow(size_ + 1);
    const std::size_t tail = size_ - pos;
    std::memmove(times_ + pos + 1, times_ + pos, tail * sizeof(Time));
    std::memmove(values_ + pos + 1, values_ + pos,
                 tail * sizeof(std::int64_t));
    times_[pos] = t;
    values_[pos] = v;
    ++size_;
  }

  void erase(std::size_t pos) { erase(pos, pos + 1); }

  // Erases [lo, hi).
  void erase(std::size_t lo, std::size_t hi) {
    const std::size_t tail = size_ - hi;
    std::memmove(times_ + lo, times_ + hi, tail * sizeof(Time));
    std::memmove(values_ + lo, values_ + hi, tail * sizeof(std::int64_t));
    size_ -= hi - lo;
  }

  // First index whose start is > t (== std::upper_bound on the starts).
  [[nodiscard]] std::size_t upper_bound_start(Time t) const noexcept {
    return static_cast<std::size_t>(
        std::upper_bound(times_, times_ + size_, t) - times_);
  }

  // Heap blocks this store has allocated (diagnostic: copies start at zero,
  // moves carry it).
  [[nodiscard]] std::uint64_t alloc_count() const noexcept { return allocs_; }

  friend bool operator==(const SegStore& a, const SegStore& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.times_, b.times_, a.size_ * sizeof(Time)) == 0 &&
           std::memcmp(a.values_, b.values_,
                       a.size_ * sizeof(std::int64_t)) == 0;
  }

 private:
  [[nodiscard]] bool inline_store() const noexcept {
    return times_ == inline_times_;
  }

  // Replaces contents with src's. Reuses capacity.
  void assign(const SegStore& src) {
    if (src.size_ > cap_) grow(src.size_);
    std::memcpy(times_, src.times_, src.size_ * sizeof(Time));
    std::memcpy(values_, src.values_, src.size_ * sizeof(std::int64_t));
    size_ = src.size_;
  }

  void release() noexcept {
    if (!inline_store()) std::free(times_);
  }

  // Move support: steal other's heap block, or memcpy its inline contents;
  // other is left empty on its inline buffer either way.
  void steal(SegStore& other) noexcept {
    size_ = other.size_;
    allocs_ = other.allocs_;
    if (other.inline_store()) {
      cap_ = kInlineSegments;
      times_ = inline_times_;
      values_ = inline_values_;
      std::memcpy(inline_times_, other.inline_times_,
                  size_ * sizeof(Time));
      std::memcpy(inline_values_, other.inline_values_,
                  size_ * sizeof(std::int64_t));
    } else {
      cap_ = other.cap_;
      times_ = other.times_;
      values_ = other.values_;
      other.cap_ = kInlineSegments;
      other.times_ = other.inline_times_;
      other.values_ = other.inline_values_;
    }
    other.size_ = 0;
    other.allocs_ = 0;
  }

  void grow(std::size_t need) {
    std::size_t new_cap = cap_ * 2;
    if (new_cap < need) new_cap = need;
    // One block, times first then values: a single allocation per spill.
    auto* block = static_cast<std::int64_t*>(
        std::malloc(2 * new_cap * sizeof(std::int64_t)));
    if (block == nullptr) throw std::bad_alloc();
    note_alloc(2 * new_cap * sizeof(std::int64_t));
    ++allocs_;
    std::memcpy(block, times_, size_ * sizeof(Time));
    std::memcpy(block + new_cap, values_, size_ * sizeof(std::int64_t));
    release();
    times_ = block;
    values_ = block + new_cap;
    cap_ = new_cap;
  }

  std::size_t size_ = 0;
  std::size_t cap_ = kInlineSegments;
  Time* times_ = inline_times_;
  std::int64_t* values_ = inline_values_;
  std::uint64_t allocs_ = 0;
  Time inline_times_[kInlineSegments];
  std::int64_t inline_values_[kInlineSegments];
};

}  // namespace resched
