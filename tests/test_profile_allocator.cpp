#include "core/profile_allocator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/availability.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

TEST(FreeProfile, RejectsNegativeCapacity) {
  StepProfile profile(1);
  profile.add(0, 3, -2);
  EXPECT_THROW(FreeProfile{profile}, std::invalid_argument);
}

TEST(FreeProfile, FitsAtConstantCapacity) {
  FreeProfile free{StepProfile(4)};
  EXPECT_TRUE(free.fits_at(0, 4, 10));
  EXPECT_FALSE(free.fits_at(0, 5, 1));
  EXPECT_TRUE(free.fits_at(1'000'000, 1, 1));
}

TEST(FreeProfile, FitsAtRespectsDips) {
  StepProfile profile(4);
  profile.add(5, 7, -3);  // capacity 1 on [5,7)
  FreeProfile free{profile};
  EXPECT_TRUE(free.fits_at(0, 2, 5));    // [0,5) untouched
  EXPECT_FALSE(free.fits_at(0, 2, 6));   // [0,6) touches the dip
  EXPECT_TRUE(free.fits_at(5, 1, 2));    // inside the dip, q = 1 fits
  EXPECT_FALSE(free.fits_at(6, 2, 1));   // [6,7) has only 1
  EXPECT_TRUE(free.fits_at(7, 4, 100));
}

TEST(FreeProfile, EarliestFitImmediate) {
  FreeProfile free{StepProfile(3)};
  EXPECT_EQ(free.earliest_fit(0, 3, 5), 0);
  EXPECT_EQ(free.earliest_fit(11, 1, 1), 11);
}

TEST(FreeProfile, EarliestFitSkipsDeficientSegment) {
  StepProfile profile(4);
  profile.add(2, 6, -4);  // zero capacity on [2,6)
  FreeProfile free{profile};
  // A job of length 3 from t=0 would hit [2,6); earliest is 6.
  EXPECT_EQ(free.earliest_fit(0, 1, 3), 6);
  // Length 2 fits exactly at [0,2).
  EXPECT_EQ(free.earliest_fit(0, 1, 2), 0);
  EXPECT_EQ(free.earliest_fit(1, 1, 2), 6);  // [1,3) overlaps the dip
}

TEST(FreeProfile, EarliestFitLandsOnCapacityIncrease) {
  StepProfile profile(5);
  profile.add(3, 8, -4);   // 1 on [3,8)
  profile.add(8, 12, -2);  // 3 on [8,12)
  FreeProfile free{profile};
  // q = 2, p = 4: blocked through [3,8); at 8 capacity rises to 3 and the
  // window [8,12) holds 3 >= 2.
  EXPECT_EQ(free.earliest_fit(0, 2, 4), 8);
  // q = 4, p = 1: 5 on [0,3) fits at t = 0 from t0 = 0; from t0 = 3 the
  // next fit is 12.
  EXPECT_EQ(free.earliest_fit(0, 4, 1), 0);
  EXPECT_EQ(free.earliest_fit(3, 4, 1), 12);
}

TEST(FreeProfile, EarliestFitImpossibleWidthThrows) {
  FreeProfile free{StepProfile(2)};
  EXPECT_THROW((void)free.earliest_fit(0, 3, 1), std::invalid_argument);
}

TEST(FreeProfile, TentativeCommitSubtractsAndRollbackRestores) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::CommitToken token = free.commit_tentative(2, 3, 5);
  EXPECT_TRUE(token.live());
  EXPECT_EQ(free.open_commits(), 1u);
  EXPECT_EQ(free.capacity_at(2), 1);
  EXPECT_EQ(free.capacity_at(6), 1);
  EXPECT_EQ(free.capacity_at(7), 4);
  EXPECT_FALSE(free.fits_at(0, 2, 5));
  free.rollback(std::move(token));
  EXPECT_EQ(free.capacity_at(2), 4);
  EXPECT_EQ(free.open_commits(), 0u);
}

TEST(FreeProfile, RollbackKillsItsTokenAndKeepsFittedCommits) {
  FreeProfile free{StepProfile(4)};
  free.commit_fitted(0, 2, 10);
  EXPECT_EQ(free.capacity_at(5), 2);
  EXPECT_EQ(free.open_commits(), 0u);

  FreeProfile::CommitToken probe = free.commit_tentative(3, 2, 4);
  EXPECT_EQ(free.capacity_at(4), 0);
  free.rollback(std::move(probe));
  EXPECT_FALSE(probe.live());  // NOLINT(bugprone-use-after-move): asserted dead
  EXPECT_EQ(free.capacity_at(4), 2);
  // The fitted commit stays in effect.
  EXPECT_EQ(free.capacity_at(9), 2);
  EXPECT_EQ(free.capacity_at(10), 4);
}

TEST(FreeProfile, TokensResolveNewestFirst) {
  FreeProfile free{StepProfile(8)};
  FreeProfile::CommitToken first = free.commit_tentative(0, 2, 4);
  FreeProfile::CommitToken second = free.commit_tentative(1, 3, 4);
  // Rolling back the older token out of order trips the LIFO check (and
  // leaves it live: a failed rollback consumes nothing, so a retry trips
  // again).
  EXPECT_THROW(free.rollback(std::move(first)), std::logic_error);
  EXPECT_THROW(free.rollback(std::move(first)), std::logic_error);
  EXPECT_TRUE(first.live());  // NOLINT(bugprone-use-after-move)
  // Unwinding newest-first works.
  free.rollback(std::move(second));
  EXPECT_EQ(free.capacity_at(2), 6);
  EXPECT_EQ(free.open_commits(), 1u);
  // A dead token cannot resolve anything.
  EXPECT_THROW(free.rollback(std::move(second)), std::logic_error);
}

TEST(FreeProfile, ForInstanceUsesAvailability) {
  const Instance instance(6, {Job{0, 1, 1, 0, ""}},
                          {Reservation{0, 4, 5, 2, ""}});
  const FreeProfile free = FreeProfile::for_instance(instance);
  EXPECT_EQ(free.capacity_at(0), 6);
  EXPECT_EQ(free.capacity_at(2), 2);
  EXPECT_EQ(free.capacity_at(7), 6);
}

// Differential property: earliest_fit agrees with a brute-force scan over
// every candidate start time on random small profiles.
class EarliestFitRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EarliestFitRandomized, AgreesWithBruteForce) {
  constexpr Time kHorizon = 48;
  Prng prng(GetParam());
  StepProfile profile(5);
  for (int i = 0; i < 10; ++i) {
    const Time a = prng.uniform_int(0, kHorizon - 1);
    const Time len = prng.uniform_int(1, 12);
    const std::int64_t delta = prng.uniform_int(-2, 0);
    if (profile.min_in(a, a + len) + delta >= 0)
      profile.add(a, a + len, delta);
  }
  FreeProfile free{profile};

  for (int trial = 0; trial < 60; ++trial) {
    const ProcCount q = prng.uniform_int(1, 5);
    const Time p = prng.uniform_int(1, 10);
    const Time t0 = prng.uniform_int(0, kHorizon);
    const Time got = free.earliest_fit(t0, q, p);
    // Brute force: first t >= t0 with min over [t, t+p) >= q; scanning past
    // the last possible breakpoint (kHorizon + max added length) is enough
    // because the profile is constant 5 beyond it.
    Time expected = kTimeInfinity;
    for (Time t = t0; t <= kHorizon + 13; ++t) {
      if (profile.min_in(t, t + p) >= q) {
        expected = t;
        break;
      }
    }
    ASSERT_EQ(got, expected) << "q=" << q << " p=" << p << " t0=" << t0;
    // And the returned start indeed fits.
    ASSERT_TRUE(free.fits_at(got, q, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EarliestFitRandomized,
                         ::testing::Values(10, 11, 12, 13, 14, 15));

TEST(FreeProfileVersioned, CheckpointRewindRestoresPlanState) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();

  // A plan in recording mode: permanent-API commits become frames too.
  free.commit_fitted(0, 3, 10);
  free.commit_fitted(5, 2, 4);
  free.commit_fitted(12, 8, 2);
  EXPECT_EQ(free.open_commits(), 3u);
  EXPECT_EQ(free.capacity_at(6), 3);
  EXPECT_EQ(free.capacity_at(12), 0);

  free.rewind_to(before);
  EXPECT_EQ(free.open_commits(), 0u);
  EXPECT_EQ(free.capacity_at(0), 8);
  EXPECT_EQ(free.capacity_at(6), 8);
  EXPECT_EQ(free.capacity_at(12), 8);
  // Rewinding to the same checkpoint again is a no-op, not an error.
  free.rewind_to(before);
}

TEST(FreeProfileVersioned, RewindToMidPlanCheckpointUnwindsOnlyTheSuffix) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  free.commit_fitted(0, 2, 10);
  const FreeProfile::Checkpoint mid = free.checkpoint();
  free.commit_fitted(0, 4, 5);
  EXPECT_EQ(free.capacity_at(0), 2);
  free.rewind_to(mid);
  EXPECT_EQ(free.capacity_at(0), 6) << "prefix frame must survive";
  EXPECT_EQ(free.open_commits(), 1u);
}

TEST(FreeProfileVersioned, ToggleRetainRequiresEmptyStack) {
  FreeProfile free{StepProfile(4)};
  FreeProfile::CommitToken token = free.commit_tentative(0, 1, 1);
  EXPECT_THROW(free.set_retain_accepted(true), std::invalid_argument);
  free.rollback(std::move(token));
  free.set_retain_accepted(true);
  EXPECT_TRUE(free.retain_accepted());
}

TEST(FreeProfileVersioned, RewindRefusesToCrossPermanentMutations) {
  FreeProfile free{StepProfile(8)};
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  free.adjust_capacity(0, 10, -3);  // the world moved: not a plan frame
  EXPECT_THROW(free.rewind_to(before), std::logic_error);
  EXPECT_EQ(free.capacity_at(5), 5) << "failed rewind must not mutate";
}

TEST(FreeProfileVersioned, AdjustCapacityContracts) {
  FreeProfile free{StepProfile(4)};
  // Withdrawals must stay within the window's minimum free capacity.
  EXPECT_THROW(free.adjust_capacity(0, 10, -5), std::invalid_argument);
  free.adjust_capacity(2, 6, -4);
  EXPECT_EQ(free.capacity_at(3), 0);
  EXPECT_THROW(free.adjust_capacity(0, 4, -1), std::invalid_argument);
  // Restores lift the window back; a cancellation refund.
  free.adjust_capacity(2, 6, 4);
  EXPECT_EQ(free.capacity_at(3), 4);
  // Plans must be rewound before the world moves.
  FreeProfile::CommitToken token = free.commit_tentative(0, 1, 1);
  EXPECT_THROW(free.adjust_capacity(0, 1, -1), std::logic_error);
  free.rollback(std::move(token));
  EXPECT_THROW(free.adjust_capacity(3, 3, -1), std::invalid_argument);
}

TEST(FreeProfileVersioned, CompactHistoryPreservesTheLiveSuffix) {
  FreeProfile free{StepProfile(16)};
  for (Time t = 0; t < 100; t += 10) free.adjust_capacity(t, t + 5, -1);
  const std::size_t segments_before = free.profile().segment_count();
  const ProcCount at_now = free.capacity_at(52);
  const ProcCount later = free.capacity_at(75);
  const std::size_t removed = free.compact_history(52);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(free.profile().segment_count(), segments_before);
  EXPECT_EQ(free.capacity_at(52), at_now);
  EXPECT_EQ(free.capacity_at(75), later);
  EXPECT_EQ(free.capacity_at(1000), 16);
  // A checkpoint taken before a compaction is no longer rewindable: the
  // coalescing is a permanent mutation.
  free.set_retain_accepted(true);
  const FreeProfile::Checkpoint before = free.checkpoint();
  ASSERT_GT(free.compact_history(60), 0u);
  EXPECT_THROW(free.rewind_to(before), std::logic_error);
  EXPECT_EQ(free.capacity_at(75), later);
}

// Differential twin fuzz: a long random interleaving of plan frames,
// checkpoints, rewinds and permanent mutations stays bit-identical to a
// naive twin that re-derives the profile from the surviving operations.
TEST(FreeProfileVersioned, CheckpointRewindTwinFuzz) {
  Prng prng(777);
  for (int round = 0; round < 20; ++round) {
    FreeProfile free{StepProfile(32)};
    free.set_retain_accepted(true);
    // The twin records every operation that is still in effect.
    struct Op {
      Time from = 0, to = 0;
      std::int64_t delta = 0;
    };
    std::vector<Op> permanent;
    std::vector<Op> frames;
    struct Mark {
      FreeProfile::Checkpoint cp;
      std::size_t frame_count = 0;
    };
    std::vector<Mark> marks;

    for (int step = 0; step < 120; ++step) {
      const int roll = static_cast<int>(prng.uniform_int(0, 9));
      const Time t = prng.uniform_int(0, 400);
      const ProcCount q = prng.uniform_int(1, 8);
      const Time p = prng.uniform_int(1, 40);
      if (roll < 4) {
        if (!free.fits_at(t, q, p)) continue;
        free.commit_fitted(t, q, p);
        frames.push_back(Op{t, t + p, -static_cast<std::int64_t>(q)});
      } else if (roll < 6) {
        marks.push_back(Mark{free.checkpoint(), frames.size()});
      } else if (roll < 8 && !marks.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            prng.uniform_int(0, static_cast<std::int64_t>(marks.size()) - 1));
        const Mark mark = marks[pick];
        free.rewind_to(mark.cp);
        frames.resize(mark.frame_count);
        marks.resize(pick + 1);
      } else if (frames.empty()) {
        // Permanent mutations require an empty frame stack; only attempt
        // one between plans.
        if (free.profile().min_in(t, t + p) < q) continue;
        free.adjust_capacity(t, t + p, -static_cast<std::int64_t>(q));
        permanent.push_back(Op{t, t + p, -static_cast<std::int64_t>(q)});
        marks.clear();  // checkpoints cannot cross a permanent mutation
      }
    }

    StepProfile twin(32);
    for (const Op& op : permanent) twin.add(op.from, op.to, op.delta);
    for (const Op& op : frames) twin.add(op.from, op.to, op.delta);
    for (Time t = 0; t <= 450; ++t)
      ASSERT_EQ(free.capacity_at(t), twin.value_at(t))
          << "round " << round << " t=" << t;
  }
}

}  // namespace
}  // namespace resched
