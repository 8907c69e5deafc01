// LSRC's and EASY's batch loops against the per-event loop they replace.
//
// schedule() wakes only at the profile's next capacity rise or the next
// release, walking one pass cursor forward (the no-rise corollary in
// core/profile_allocator.hpp). The reference loops below wake at every job
// completion, every reservation end and every release, and run the seed's
// plain rescans there on a fresh free.at(t): LSRC tries every released
// pending job in list order; EASY starts heads while they fit, books the
// blocked head at its earliest fit, then admits each later job that fits
// now and, committed on a copy of the profile, keeps the head fitting at
// its booking. Both must agree with schedule() start for start.
//
// The instances put durations, reservation starts and releases on a
// coarse grid, so completions often coincide with a reservation start at
// least as wide as the job -- where capacity does not rise and the new
// loop skips the pass -- and releases often land on completion ticks. The
// suite counts the reference's passes at completion ticks with no rise and
// no release, and requires some, so the comparison cannot go vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "algorithms/easy_bf.hpp"
#include "algorithms/list_order.hpp"
#include "algorithms/lsrc.hpp"
#include "core/instance.hpp"
#include "core/profile_allocator.hpp"
#include "core/schedule.hpp"
#include "core/step_profile.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr Time kGrid = 5;

Instance tie_heavy_instance(std::uint64_t seed) {
  Prng prng(seed);
  const ProcCount m = prng.uniform_int(4, 16);
  // Reservations on the grid, kept only while U(t) <= m holds everywhere.
  std::vector<Reservation> reservations;
  StepProfile used(0);
  for (int k = static_cast<int>(prng.uniform_int(2, 8)); k > 0; --k) {
    const Time start = kGrid * prng.uniform_int(0, 24);
    const Time p = kGrid * prng.uniform_int(1, 5);
    const ProcCount q = prng.uniform_int(1, m);
    if (used.max_in(start, start + p) + q > m) continue;
    used.add(start, start + p, q);
    reservations.push_back(Reservation{
        static_cast<ReservationId>(reservations.size()), q, p, start, ""});
  }
  // Jobs: grid durations, so every start and completion lies on the grid;
  // half the instances are offline, the rest release on grid ticks.
  const bool online = prng.chance(0.5);
  std::vector<Job> jobs;
  const int n = static_cast<int>(prng.uniform_int(20, 50));
  for (int i = 0; i < n; ++i) {
    const ProcCount q = prng.chance(0.3) ? prng.uniform_int(1, m)
                                         : prng.uniform_int(1, (m + 1) / 2);
    const Time p = kGrid * prng.uniform_int(1, 6);
    const Time release = online ? kGrid * prng.uniform_int(0, 20) : 0;
    jobs.push_back(Job{static_cast<JobId>(i), q, p, release, ""});
  }
  return Instance(m, std::move(jobs), std::move(reservations));
}

// Every completion, reservation end and release, in time order.
class PerEventClock {
 public:
  explicit PerEventClock(const Instance& instance) {
    for (const Reservation& resa : instance.reservations())
      wakeups_.insert(resa.end());
    for (const Job& job : instance.jobs()) {
      wakeups_.insert(job.release);
      releases_.insert(job.release);
    }
  }

  [[nodiscard]] bool empty() const { return wakeups_.empty(); }

  // Pops the next wake-up. Counts it in `skipped` if schedule() makes no
  // pass there: a completion tick where the capacity does not rise and no
  // job is released.
  Time next(const FreeProfile& free, int& skipped) {
    const Time t = *wakeups_.begin();
    wakeups_.erase(wakeups_.begin());
    if (t > 0 && completions_.count(t) != 0 && releases_.count(t) == 0 &&
        free.profile().value_at(t) <= free.profile().value_at(t - 1))
      ++skipped;
    return t;
  }

  void completes_at(Time end) {
    wakeups_.insert(end);
    completions_.insert(end);
  }

 private:
  std::set<Time> wakeups_;
  std::set<Time> releases_;
  std::set<Time> completions_;
};

std::vector<Time> reference_lsrc(const Instance& instance,
                                 const std::vector<JobId>& list,
                                 int& skipped) {
  FreeProfile free = FreeProfile::for_instance(instance);
  PerEventClock clock(instance);
  std::vector<Time> start(instance.n(), -1);
  std::size_t remaining = instance.n();
  while (remaining > 0 && !clock.empty()) {
    const Time t = clock.next(free, skipped);
    FreeProfile::Cursor at = free.at(t);
    for (const JobId id : list) {
      const Job& job = instance.job(id);
      const auto i = static_cast<std::size_t>(id);
      if (start[i] >= 0 || job.release > t || !at.try_take(job.q, job.p))
        continue;
      start[i] = t;
      clock.completes_at(t + job.p);
      --remaining;
    }
  }
  EXPECT_EQ(remaining, 0u) << "reference LSRC ran out of wake-ups";
  return start;
}

std::vector<Time> reference_easy(const Instance& instance, int& skipped) {
  const std::vector<Job>& jobs = instance.jobs();
  std::vector<JobId> arrival(jobs.size());
  std::iota(arrival.begin(), arrival.end(), JobId{0});
  std::stable_sort(arrival.begin(), arrival.end(), [&](JobId a, JobId b) {
    return instance.job(a).release < instance.job(b).release;
  });

  FreeProfile free = FreeProfile::for_instance(instance);
  PerEventClock clock(instance);
  std::vector<Time> start(jobs.size(), -1);
  std::vector<JobId> waiting;  // FCFS
  std::size_t next_arrival = 0;
  std::size_t remaining = jobs.size();
  while (remaining > 0 && !clock.empty()) {
    const Time t = clock.next(free, skipped);
    while (next_arrival < arrival.size() &&
           instance.job(arrival[next_arrival]).release <= t)
      waiting.push_back(arrival[next_arrival++]);
    FreeProfile::Cursor at = free.at(t);
    const auto begin_at = [&](const Job& job) {
      start[static_cast<std::size_t>(job.id)] = t;
      clock.completes_at(t + job.p);
      --remaining;
    };
    // Heads start while they fit.
    std::size_t head = 0;
    while (head < waiting.size()) {
      const Job& job = instance.job(waiting[head]);
      if (!at.try_take(job.q, job.p)) break;
      begin_at(job);
      ++head;
    }
    waiting.erase(waiting.begin(),
                  waiting.begin() + static_cast<std::ptrdiff_t>(head));
    if (waiting.empty()) continue;
    // The blocked head's booking; later jobs backfill now unless they do
    // not fit or would push the booking back.
    const Job& blocked = instance.job(waiting.front());
    const Time booked = at.earliest_fit(blocked.q, blocked.p);
    std::vector<JobId> kept{waiting.front()};
    for (std::size_t k = 1; k < waiting.size(); ++k) {
      const Job& job = instance.job(waiting[k]);
      bool starts = free.fits_at(t, job.q, job.p);
      if (starts) {
        FreeProfile trial = free;
        trial.commit_fitted(t, job.q, job.p);
        starts = trial.fits_at(booked, blocked.q, blocked.p);
      }
      if (starts) {
        at.take(job.q, job.p);
        begin_at(job);
      } else {
        kept.push_back(waiting[k]);
      }
    }
    waiting = std::move(kept);
  }
  EXPECT_EQ(remaining, 0u) << "reference EASY ran out of wake-ups";
  return start;
}

std::vector<Time> starts_of(const Instance& instance,
                            const Schedule& schedule) {
  EXPECT_TRUE(schedule.validate(instance).ok);
  std::vector<Time> start(instance.n());
  for (const Job& job : instance.jobs())
    start[static_cast<std::size_t>(job.id)] = schedule.start(job.id);
  return start;
}

constexpr std::uint64_t kSeeds = 120;

TEST(WakeupEquiv, LsrcMatchesThePerEventLoopForEveryOrder) {
  int skipped = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance instance = tie_heavy_instance(seed);
    for (const ListOrder order : all_list_orders()) {
      if (order == ListOrder::kRandom) continue;
      const std::vector<JobId> list = make_list(instance, order, 0);
      ASSERT_EQ(
          starts_of(instance, LsrcScheduler(order).schedule(instance).value()),
          reference_lsrc(instance, list, skipped))
          << "seed " << seed << " order " << to_string(order);
    }
    // An explicit list: a seeded shuffle of the ids.
    std::vector<JobId> list(instance.n());
    std::iota(list.begin(), list.end(), JobId{0});
    Prng prng(seed + 1000);
    for (std::size_t i = list.size(); i > 1; --i)
      std::swap(list[i - 1],
                list[static_cast<std::size_t>(prng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    ASSERT_EQ(starts_of(instance, LsrcScheduler(list).schedule(instance).value()),
              reference_lsrc(instance, list, skipped))
        << "seed " << seed << " explicit list";
  }
  EXPECT_GT(skipped, 0)
      << "no completion tick without a capacity rise: the family does not "
         "exercise the skipped passes";
}

TEST(WakeupEquiv, EasyMatchesThePerEventLoop) {
  int skipped = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const Instance instance = tie_heavy_instance(seed);
    ASSERT_EQ(
        starts_of(instance, EasyBackfillScheduler().schedule(instance).value()),
        reference_easy(instance, skipped))
        << "seed " << seed;
  }
  EXPECT_GT(skipped, 0)
      << "no completion tick without a capacity rise: the family does not "
         "exercise the skipped passes";
}

}  // namespace
}  // namespace resched
