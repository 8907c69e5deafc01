#include "algorithms/conservative_bf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "algorithms/fcfs.hpp"
#include "core/profile_allocator.hpp"
#include "generators/adversarial.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

TEST(ConservativeBf, BackfillsIntoHoles) {
  // Wide job 1 blocked behind job 0; narrow job 2 slides to t = 0.
  const Instance instance(
      2, {Job{0, 1, 10, 0, ""}, Job{1, 2, 1, 0, ""}, Job{2, 1, 1, 0, ""}});
  const Schedule schedule = ConservativeBackfillScheduler().schedule(instance).value();
  EXPECT_EQ(schedule.start(0), 0);
  EXPECT_EQ(schedule.start(1), 10);
  EXPECT_EQ(schedule.start(2), 0);  // overtakes without delaying job 1
}

TEST(ConservativeBf, NeverDelaysEarlierJobs) {
  // The schedule each prefix of jobs receives must be unchanged by the jobs
  // inserted after them (definition of conservative backfilling).
  WorkloadConfig config;
  config.n = 25;
  config.m = 8;
  const Instance full = random_workload(config, 33);
  const Schedule schedule = ConservativeBackfillScheduler().schedule(full).value();
  ASSERT_TRUE(schedule.validate(full).ok);
  for (std::size_t prefix = 1; prefix < full.n(); ++prefix) {
    std::vector<Job> jobs(full.jobs().begin(),
                          full.jobs().begin() + static_cast<long>(prefix));
    const Instance partial(full.m(), std::move(jobs));
    const Schedule partial_schedule =
        ConservativeBackfillScheduler().schedule(partial).value();
    for (JobId id = 0; id < static_cast<JobId>(prefix); ++id)
      ASSERT_EQ(partial_schedule.start(id), schedule.start(id))
          << "job " << id << " moved when later jobs were submitted";
  }
}

TEST(ConservativeBf, FixesTheFcfsBadFamily) {
  // Conservative backfilling packs the narrow jobs in parallel, achieving
  // the optimum on the family where FCFS degrades to ratio m.
  const FcfsBadFamily family = fcfs_bad_instance(6);
  const Schedule cbf = ConservativeBackfillScheduler().schedule(family.instance).value();
  ASSERT_TRUE(cbf.validate(family.instance).ok);
  EXPECT_EQ(cbf.makespan(family.instance), family.optimal_makespan);
  const Schedule fcfs = FcfsScheduler().schedule(family.instance).value();
  EXPECT_GT(fcfs.makespan(family.instance), cbf.makespan(family.instance));
}

TEST(ConservativeBf, RespectsReservationsAndReleases) {
  const Instance instance(3,
                          {Job{0, 3, 4, 0, ""}, Job{1, 1, 2, 5, ""}},
                          {Reservation{0, 3, 3, 4, ""}});
  const Schedule schedule = ConservativeBackfillScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);
  EXPECT_EQ(schedule.start(0), 0);   // fits exactly before the reservation
  EXPECT_EQ(schedule.start(1), 7);   // released at 5, blocked until 7
}

TEST(ConservativeBf, NeverWorseThanFcfs) {
  // Earliest-fit insertion can only move jobs earlier than strict FCFS's
  // non-overtaking start times.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    WorkloadConfig config;
    config.n = 30;
    config.m = 12;
    const Instance instance = random_workload(config, seed);
    const Time cbf = ConservativeBackfillScheduler()
                         .schedule(instance).value()
                         .makespan(instance);
    const Time fcfs = FcfsScheduler().schedule(instance).value().makespan(instance);
    EXPECT_LE(cbf, fcfs) << "seed " << seed;
  }
}

// The placement loop without dominance floors: every job, in (release,
// index) order, at its earliest fit from max(t0, release).
std::vector<Time> place_without_floors(FreeProfile& free,
                                       const std::vector<Job>& jobs, Time t0) {
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].release < jobs[b].release;
                   });
  std::vector<Time> starts(jobs.size());
  for (const std::size_t i : order)
    starts[i] = free.place(std::max(t0, jobs[i].release), jobs[i].q,
                           jobs[i].p);
  return starts;
}

// Replans `jobs` on `free` from t0 and runs the loop without floors on a
// copy of it: every start and the final profile must be identical.
void expect_same_as_without_floors(FreeProfile& free,
                                   const std::vector<Job>& jobs, ProcCount m,
                                   Time t0, const std::string& label) {
  FreeProfile oracle = free;
  const std::vector<Time> expected = place_without_floors(oracle, jobs, t0);
  const Schedule schedule = ConservativeBackfillScheduler().replan(
      ReplanRequest{.free = free, .queue = jobs, .m = m, .now = t0});
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ASSERT_EQ(schedule.start(static_cast<JobId>(i)), expected[i])
        << label << ", job " << i << " (q " << jobs[i].q << ", p "
        << jobs[i].p << ", release " << jobs[i].release << ")";
  ASSERT_TRUE(free.profile() == oracle.profile()) << label;
}

TEST(ConservativeBf, DominanceFloorsMatchAPlacementLoopWithoutFloors) {
  // The 90 golden hashes draw power-of-two widths only, where ceil and
  // floor of log2 q agree; these instances do not.
  struct Case {
    std::string name;
    WorkloadConfig workload;
    bool reserved = false;   // alpha-restricted reservations
    Time release_grain = 0;  // > 0: releases rounded down to it, shuffled
  };
  const auto uniform = [](ProcCount m, Time p_max) {
    WorkloadConfig workload;
    workload.n = 400;
    workload.m = m;
    workload.p_max = p_max;
    workload.width = WidthDistribution::kUniform;
    return workload;
  };
  WorkloadConfig online = uniform(96, 300);
  online.mean_interarrival = 4.0;
  WorkloadConfig reserved = uniform(128, 500);
  reserved.alpha = Rational(1, 2);
  const std::vector<Case> cases = {
      {"uniform widths past the last row", uniform(1024, 500), false, 0},
      {"durations past the last column", uniform(48, 200000), false, 0},
      {"online releases with ties", online, false, 40},
      {"reservations", reserved, true, 0},
  };
  for (const Case& c : cases) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      Instance instance = random_workload(c.workload, seed);
      if (c.reserved) {
        AlphaReservationConfig resa;
        resa.count = 12;
        resa.horizon = 2000;
        resa.max_duration = 300;
        instance = with_alpha_restricted_reservations(instance, resa, seed);
      }
      std::vector<Job> jobs = instance.jobs();
      if (c.release_grain > 0) {
        for (Job& job : jobs)
          job.release = job.release / c.release_grain * c.release_grain;
        Prng prng(seed);
        prng.shuffle(std::span<Job>(jobs));
      }
      const std::string label = c.name + ", seed " + std::to_string(seed);

      // One call from t0 = 0 on the instance's own profile (schedule()).
      FreeProfile fresh = FreeProfile::for_instance(instance);
      expect_same_as_without_floors(fresh, jobs, instance.m(), 0, label);

      // The append case: the first half from t0 = 0, then the second half
      // from t0 > 0 on the profile that already holds the first half.
      const auto half = jobs.begin() + static_cast<long>(jobs.size() / 2);
      FreeProfile appended = FreeProfile::for_instance(instance);
      expect_same_as_without_floors(appended, {jobs.begin(), half},
                                    instance.m(), 0, label + ", first half");
      expect_same_as_without_floors(appended, {half, jobs.end()},
                                    instance.m(), 700,
                                    label + ", appended at t0 = 700");
    }
  }
}

}  // namespace
}  // namespace resched
