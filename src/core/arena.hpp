// Memory subsystem for the decision hot path.
//
// Three pieces, used together by the service loop and the schedulers:
//
//  * note_alloc()/alloc_count() -- a thread-local heap-event counter. Every
//    instrumented allocation site in the library (SegStore spills, Arena
//    chunk grabs, ArenaAlloc heap fallbacks) calls note_alloc(), and the
//    bench/test binaries additionally replace the global operator new so
//    residual std-container allocations are counted too (bench/alloc_hook.cpp).
//    Instrumented sites allocate with std::malloc, which the global
//    operator-new hook never sees, so a heap event is counted exactly once.
//    The counter is cheap enough to sample around every decision, and
//    precise enough to assert "this decision performed zero heap
//    allocations" in tests and CI.
//
//  * Arena -- a monotonic bump allocator with scope-reset semantics. One
//    arena backs all transient allocations inside a single schedule()/
//    replan() call: scratch job/queue vectors, backfill buckets, event heaps,
//    the returned Schedule's start array. reset() rewinds the cursor but
//    keeps the chunks, so after the first few decisions warm it up, a
//    steady-state decision touches the heap zero times. mark()/rewind()
//    give LIFO frame discipline for DFS-style probe loops (exact/bnb.cpp).
//
//  * ArenaAlloc<T> -- a std::allocator adapter over Arena, with a null-arena
//    heap fallback so the same container types serve both batch paths
//    (no arena, plain heap) and service paths (decision arena). ScratchVec<T>
//    is the vector alias used at call sites.
//
// Deallocation through ArenaAlloc is a no-op when arena-backed; memory is
// reclaimed wholesale by reset(). A vector that grows past its capacity
// therefore strands each outgrown buffer until the reset -- together
// smaller than its final buffer, so bounded per decision scope, and exactly
// the point: no heap traffic inside the timed window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

namespace resched {

// --- Thread-local allocation diagnostics -----------------------------------

// Records one heap allocation of `bytes` bytes on this thread's counter.
void note_alloc(std::size_t bytes) noexcept;

// Heap allocations noted on this thread since thread start. Sample before
// and after an operation; the delta is that operation's allocation count.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

// Total bytes those allocations requested (diagnostic only).
[[nodiscard]] std::uint64_t alloc_bytes() noexcept;

// --- Arena ------------------------------------------------------------------

class Arena {
 public:
  Arena() noexcept = default;
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = delete;
  Arena& operator=(Arena&&) = delete;

  // Returns `bytes` bytes aligned to `align` (a power of two no larger
  // than alignof(std::max_align_t)). Never returns nullptr; a zero-byte
  // request still yields a unique, aligned pointer.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  // Rewinds the cursor to the start, keeping every chunk for reuse. All
  // pointers previously handed out become invalid.
  void reset() noexcept;

  // LIFO scope marker for DFS probe loops: everything allocated after
  // mark() is released by rewind() to that marker. Only valid in strict
  // stack order (rewind to the most recent un-rewound marker first).
  struct Marker {
    std::size_t chunk = 0;
    std::size_t offset = 0;
  };
  [[nodiscard]] Marker mark() const noexcept {
    return Marker{active_, offset_};
  }
  void rewind(Marker m) noexcept {
    active_ = m.chunk;
    offset_ = m.offset;
  }

  // Diagnostics.
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept;

 private:
  struct Chunk {
    char* data = nullptr;
    std::size_t size = 0;
  };

  // Grabs a new chunk able to hold `bytes` and makes it active.
  void grow(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // index of the chunk the cursor is in
  std::size_t offset_ = 0;  // bump cursor within chunks_[active_]
};

// --- ArenaAlloc -------------------------------------------------------------

// std::allocator adapter: arena-backed when constructed with a non-null
// Arena*, plain (counted) heap otherwise. Copy construction of a container
// deliberately does NOT inherit the arena (select_on_container_copy_
// construction returns a heap allocator): copies routinely outlive the
// decision scope. Moves steal the allocator with the buffer -- a moved-from-
// arena container must be consumed before the arena resets, which is exactly
// the lifetime of a Schedule returned from replan() into the service loop.
template <class T>
class ArenaAlloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  ArenaAlloc() noexcept = default;
  explicit ArenaAlloc(Arena* arena) noexcept : arena_(arena) {}
  template <class U>
  ArenaAlloc(const ArenaAlloc<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "ArenaAlloc does not support over-aligned types");
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr)
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    void* p = std::malloc(bytes == 0 ? 1 : bytes);
    if (p == nullptr) throw std::bad_alloc();
    note_alloc(bytes);
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) std::free(p);
    // Arena memory is reclaimed wholesale by Arena::reset().
  }

  [[nodiscard]] ArenaAlloc select_on_container_copy_construction() const {
    return ArenaAlloc{};  // copies go to the heap; see class comment
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <class U>
  friend bool operator==(const ArenaAlloc& a, const ArenaAlloc<U>& b) {
    return a.arena() == b.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

// Scratch vector for transient per-decision data.
template <class T>
using ScratchVec = std::vector<T, ArenaAlloc<T>>;

}  // namespace resched
