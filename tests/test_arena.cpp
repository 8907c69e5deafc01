// Memory-subsystem tests: the decision arena (scope reset, marker rewind,
// alignment, chunk reuse), the arena-aware allocator (heap fallback, copy
// vs move semantics) and the SoA/SBO segment store underneath StepProfile.
// The steady-state legs pin the core claim -- a warm arena cycle performs
// zero heap allocations -- via the process-wide resched::alloc_count()
// counter (operator-new hook plus the library's instrumented malloc sites).
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/arena.hpp"
#include "core/seg_store.hpp"

namespace resched {
namespace {

// ---- Arena -----------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  void* a = arena.allocate(1, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(32, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) %
                alignof(std::max_align_t),
            0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  // Writes must not overlap: fill each block and check a sentinel.
  auto* bytes = static_cast<unsigned char*>(b);
  for (int i = 0; i < 8; ++i) bytes[i] = 0xAB;
  EXPECT_EQ(static_cast<unsigned char*>(b)[0], 0xAB);
}

TEST(Arena, ResetKeepsChunksSoSteadyStateIsAllocationFree) {
  Arena arena;
  // Warm: force at least one chunk into existence.
  for (int i = 0; i < 100; ++i) (void)arena.allocate(64, 8);
  const std::size_t chunks = arena.chunk_count();
  const std::uint64_t warm = alloc_count();
  for (int cycle = 0; cycle < 50; ++cycle) {
    arena.reset();
    for (int i = 0; i < 100; ++i) (void)arena.allocate(64, 8);
  }
  EXPECT_EQ(alloc_count(), warm) << "reset+refill must reuse warm chunks";
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, MarkerRewindReleasesLifoScopes) {
  Arena arena;
  (void)arena.allocate(128, 8);
  const Arena::Marker frame = arena.mark();
  void* inner_first = arena.allocate(64, 8);
  (void)arena.allocate(256, 8);
  arena.rewind(frame);
  // The next allocation after rewind lands where the frame started.
  void* replay = arena.allocate(64, 8);
  EXPECT_EQ(replay, inner_first);
}

TEST(Arena, LargeRequestsGetTheirOwnChunk) {
  Arena arena;
  // Bigger than the first (4 KiB) chunk: must still succeed, via growth.
  void* big = arena.allocate(64 * 1024, 8);
  ASSERT_NE(big, nullptr);
  static_cast<unsigned char*>(big)[64 * 1024 - 1] = 1;  // touch the end
  EXPECT_GE(arena.capacity_bytes(), 64u * 1024u);
}

// ---- ArenaAlloc ------------------------------------------------------------

TEST(ArenaAlloc, NullArenaFallsBackToHeap) {
  const std::uint64_t before = alloc_count();
  {
    ScratchVec<int> v{ArenaAlloc<int>(nullptr)};
    v.resize(1000);
    std::iota(v.begin(), v.end(), 0);
    EXPECT_EQ(v[999], 999);
  }
  EXPECT_GT(alloc_count(), before) << "null-arena allocations are heap";
}

TEST(ArenaAlloc, ArenaBackedVectorDoesNotTouchTheHeapWhenWarm) {
  Arena arena;
  {  // warm the chunks with the same growth pattern the probe will use
    ScratchVec<int> v{ArenaAlloc<int>(&arena)};
    for (int i = 0; i < 1000; ++i) v.push_back(i);
  }
  arena.reset();
  const std::uint64_t warm = alloc_count();
  ScratchVec<int> v{ArenaAlloc<int>(&arena)};
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(alloc_count(), warm);
  EXPECT_EQ(v[999], 999);
}

TEST(ArenaAlloc, CopyLandsOnHeapButMoveKeepsArena) {
  Arena arena;
  ScratchVec<int> v{ArenaAlloc<int>(&arena)};
  v.assign({1, 2, 3});
  // select_on_container_copy_construction: the copy must outlive any
  // decision-scoped arena reset, so it gets the heap allocator.
  ScratchVec<int> copy(v);
  EXPECT_EQ(copy.get_allocator(), ArenaAlloc<int>(nullptr));
  EXPECT_EQ(copy, v);
  ScratchVec<int> moved(std::move(v));
  EXPECT_EQ(moved.get_allocator(), ArenaAlloc<int>(&arena));
  EXPECT_EQ(moved, copy);
}

// ---- SegStore --------------------------------------------------------------

TEST(SegStore, StaysInlineUpToCapacityThenSpills) {
  SegStore store;
  for (std::size_t i = 0; i < SegStore::kInlineSegments; ++i)
    store.push_back(static_cast<Time>(i), static_cast<std::int64_t>(i * 10));
  EXPECT_EQ(store.alloc_count(), 0u) << "inline storage must not allocate";
  store.push_back(100, 1000);
  EXPECT_EQ(store.alloc_count(), 1u) << "first spill is one block";
  ASSERT_EQ(store.size(), SegStore::kInlineSegments + 1);
  for (std::size_t i = 0; i < SegStore::kInlineSegments; ++i) {
    EXPECT_EQ(store.start(i), static_cast<Time>(i));
    EXPECT_EQ(store.value(i), static_cast<std::int64_t>(i * 10));
  }
  EXPECT_EQ(store.back_value(), 1000);
}

TEST(SegStore, InsertEraseAndBounds) {
  SegStore store;
  store.push_back(0, 5);
  store.push_back(10, 3);
  store.push_back(20, 7);
  store.insert(1, 5, 4);  // 0,5,10,20
  ASSERT_EQ(store.size(), 4u);
  EXPECT_EQ(store.start(1), 5);
  EXPECT_EQ(store.value(1), 4);
  EXPECT_EQ(store.upper_bound_start(5), 2u);
  store.erase(1);
  EXPECT_EQ(store.start(1), 10);
  store.erase(0, 2);  // drop [0, 2): only t=20 remains
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.start(0), 20);
}

TEST(SegStore, CopyAndMoveSemantics) {
  SegStore store;
  for (Time t = 0; t < 20; ++t) store.push_back(t, t * 2);
  SegStore copy(store);
  EXPECT_TRUE(copy == store);
  const std::size_t n = store.size();
  SegStore moved(std::move(store));
  EXPECT_EQ(moved.size(), n);
  EXPECT_TRUE(moved == copy);
  copy.set_value(0, -1);
  EXPECT_FALSE(moved == copy) << "copy must be deep";
}

}  // namespace
}  // namespace resched
