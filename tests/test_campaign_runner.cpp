// CampaignRunner: determinism across thread counts, domain handling, and
// the validation oracle.
//
// The contract under test (sim/campaign.hpp): the aggregated result is a
// pure function of (generator, config.seed, config.instances,
// config.schedulers) -- the thread count may only change wall-clock, never a
// metric. Per-index seed derivation plus single-threaded fixed-order
// aggregation make the numbers bit-identical, so the comparisons below are
// exact, not approximate.
#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/step_profile.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance sweep_instance(std::uint64_t seed, bool reserved) {
  WorkloadConfig config;
  config.n = 40;
  config.m = 32;
  config.alpha = Rational(1, 2);
  Instance instance = random_workload(config, seed);
  if (!reserved) return instance;
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 6;
  resa.horizon = 400;
  resa.max_duration = 60;
  return with_alpha_restricted_reservations(instance, resa,
                                            seed ^ 0x9e3779b97f4a7c15ull);
}

void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.instances, b.instances);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const CampaignCell& x = a.cells[i];
    const CampaignCell& y = b.cells[i];
    EXPECT_EQ(x.scheduler, y.scheduler);
    EXPECT_EQ(x.scheduled, y.scheduled);
    EXPECT_EQ(x.skipped, y.skipped);
    // Fixed-order aggregation makes these bit-identical doubles.
    EXPECT_EQ(x.makespan.mean(), y.makespan.mean());
    EXPECT_EQ(x.makespan.max(), y.makespan.max());
    EXPECT_EQ(x.makespan.stddev(), y.makespan.stddev());
    EXPECT_EQ(x.utilization.mean(), y.utilization.mean());
    EXPECT_EQ(x.mean_wait.mean(), y.mean_wait.mean());
    EXPECT_EQ(x.max_wait.max(), y.max_wait.max());
    EXPECT_EQ(x.mean_bounded_slowdown.mean(), y.mean_bounded_slowdown.mean());
  }
  // The timing-free table is the user-facing determinism artifact.
  EXPECT_EQ(a.to_table(false).to_string(), b.to_table(false).to_string());
}

TEST(CampaignRunner, SameSeedAnyThreadCountSameAggregatedMetrics) {
  CampaignConfig config;
  config.instances = 10;
  config.seed = 31337;
  config.schedulers = {"lsrc", "conservative", "easy", "fcfs"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, true);
  };

  config.threads = 1;
  const CampaignResult baseline = run_campaign(generator, config);
  EXPECT_EQ(baseline.cells.size(), 4u);
  EXPECT_EQ(baseline.cells.front().scheduled, 10u);
  EXPECT_GT(baseline.cells.front().makespan.mean(), 0.0);

  for (const std::size_t threads : {2u, 3u, 8u, 16u}) {
    config.threads = threads;
    const CampaignResult run = run_campaign(generator, config);
    ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(baseline, run))
        << "threads=" << threads;
  }

  // And a different seed genuinely changes the data (the test has teeth).
  config.seed = 31338;
  config.threads = 4;
  const CampaignResult other = run_campaign(generator, config);
  EXPECT_NE(baseline.cells.front().makespan.mean(),
            other.cells.front().makespan.mean());
}

TEST(CampaignRunner, OutOfDomainSchedulersAreCountedAsSkipped) {
  CampaignConfig config;
  config.instances = 4;
  config.seed = 5;
  config.threads = 2;
  // Shelf packers reject instances with reservations.
  config.schedulers = {"shelf-ff", "lsrc"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, true);
  };
  const CampaignResult result = run_campaign(generator, config);
  EXPECT_EQ(result.cells[0].scheduler, "shelf-ff");
  EXPECT_EQ(result.cells[0].scheduled, 0u);
  EXPECT_EQ(result.cells[0].skipped, 4u);
  // The skip is typed: every rejection names the reservations capability.
  EXPECT_EQ(result.cells[0].skipped_by_reason[static_cast<std::size_t>(
                DomainReason::kReservations)],
            4u);
  EXPECT_EQ(result.cells[0].skip_reasons(), "reservations=4");
  EXPECT_EQ(result.cells[1].scheduled, 4u);
  EXPECT_EQ(result.cells[1].skipped, 0u);
  EXPECT_EQ(result.cells[1].skip_reasons(), "");

  // On reservation-free instances the shelf packers participate.
  const InstanceGenerator open_generator =
      [](std::size_t, std::uint64_t seed) {
        return sweep_instance(seed, false);
      };
  const CampaignResult open_result = run_campaign(open_generator, config);
  EXPECT_EQ(open_result.cells[0].scheduled, 4u);
}

TEST(CampaignRunner, SharedInstancesMatchRegeneratedBitForBit) {
  // share_instances generates each instance once, under a per-instance
  // std::call_once, a window ahead of the tasks that read it; every
  // scheduler task reads it concurrently and the last one frees it. The
  // aggregated result must be bit-identical to the regenerate mode for
  // every thread count, and the generator must run exactly once per index
  // regardless of how many tasks race to it, ahead or on demand.
  CampaignConfig config;
  config.instances = 8;
  config.seed = 777;
  config.schedulers = {"lsrc", "conservative", "easy", "fcfs", "shelf-ff"};
  std::array<std::atomic<int>, 8> generated{};
  const InstanceGenerator generator = [&generated](std::size_t index,
                                                   std::uint64_t seed) {
    generated[index].fetch_add(1, std::memory_order_relaxed);
    return sweep_instance(seed, true);
  };

  config.share_instances = false;
  config.threads = 1;
  const CampaignResult baseline = run_campaign(generator, config);

  config.share_instances = true;
  for (const std::size_t threads : {1u, 2u, 8u, 16u}) {
    for (auto& count : generated) count.store(0, std::memory_order_relaxed);
    config.threads = threads;
    const CampaignResult shared = run_campaign(generator, config);
    ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(baseline, shared))
        << "share_instances threads=" << threads;
    for (std::size_t i = 0; i < generated.size(); ++i)
      EXPECT_EQ(generated[i].load(), 1)
          << "instance " << i << " generated more than once (threads="
          << threads << ")";
  }
}

TEST(CampaignRunner, SharedModeGeneratorExceptionsStillAbortTheCampaign) {
  // call_once's turns semantics must not swallow or double-run a throwing
  // generator: the failure propagates and aborts, same as regenerate mode.
  // At 4 schedulers, index 3 is generated ahead by a task of index 2 (the
  // last one at 1 thread, the first one at 4), and index 5 is the last
  // index, whose own tasks generate nothing ahead.
  CampaignConfig config;
  config.instances = 6;
  config.share_instances = true;
  config.schedulers = {"fcfs", "lsrc", "easy", "conservative"};
  for (const std::size_t failing : {3u, 5u}) {
    const InstanceGenerator generator = [failing](std::size_t index,
                                                  std::uint64_t) {
      if (index == failing)
        throw std::runtime_error("generator failure at " +
                                 std::to_string(index));
      return sweep_instance(index + 1, true);
    };
    for (const std::size_t threads : {1u, 4u}) {
      config.threads = threads;
      try {
        (void)run_campaign(generator, config);
        ADD_FAILURE() << "no abort: failing index " << failing
                      << ", threads=" << threads;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "generator failure at " + std::to_string(failing))
            << "threads=" << threads;
      }
    }
  }
}

namespace {
// The window probe: a scheduler and a generator that share process-wide
// counters (the scheduler is registered once per process, so its state
// cannot live in one test). The generator encodes the index as n = index
// + 1 on a machine just as wide, and the probe starts every job at 0.
struct WindowProbe {
  static constexpr std::size_t kMaxInstances = 48;
  struct Generation {
    std::size_t index = 0;
    std::size_t live = 0;        // generated, not yet finished by all tasks
    std::size_t tasks_done = 0;  // probe tasks finished before this call
  };
  std::size_t tasks_per_instance = 1;
  std::array<std::atomic<std::size_t>, kMaxInstances> calls{};
  std::array<std::atomic<std::size_t>, kMaxInstances> finished{};
  std::atomic<std::size_t> generated{0};
  std::atomic<std::size_t> completed{0};  // indices finished by all tasks
  std::atomic<std::size_t> tasks_done{0};
  std::mutex mutex;
  std::vector<Generation> log;

  void reset(std::size_t schedulers) {
    tasks_per_instance = schedulers;
    for (auto& count : calls) count.store(0);
    for (auto& count : finished) count.store(0);
    generated.store(0);
    completed.store(0);
    tasks_done.store(0);
    log.clear();
  }

  Instance generate(std::size_t index) {
    calls[index].fetch_add(1);
    const std::size_t tasks = tasks_done.load();
    // Counted after this generation began and loaded in this order, live
    // can only undercount the instances that are really resident.
    const std::size_t started = generated.fetch_add(1) + 1;
    const std::size_t live = started - completed.load();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      log.push_back({index, live, tasks});
    }
    std::vector<Job> jobs(index + 1);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].id = static_cast<JobId>(j);
      jobs[j].p = 3;
    }
    return Instance(static_cast<ProcCount>(index + 1), std::move(jobs));
  }

  void finish(std::size_t index) {
    if (finished[index].fetch_add(1) + 1 == tasks_per_instance)
      completed.fetch_add(1);
    tasks_done.fetch_add(1);
  }
};

WindowProbe& window_probe() {
  static WindowProbe probe;
  return probe;
}

class WindowProbeScheduler final : public Scheduler {
 public:
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    Schedule schedule(instance.n());
    for (const Job& job : instance.jobs()) schedule.set_start(job.id, 0);
    window_probe().finish(instance.n() - 1);
    return schedule;
  }
  [[nodiscard]] std::string name() const override { return "window-probe"; }
};

// Runs a shared-mode campaign of `schedulers` probe tasks per instance.
void run_window_campaign(std::size_t instances, std::size_t schedulers,
                         std::size_t threads) {
  static const bool registered = [] {
    register_scheduler(
        "window-probe", [] { return std::make_unique<WindowProbeScheduler>(); },
        "test-only: counts finished tasks per shared instance");
    return true;
  }();
  (void)registered;
  window_probe().reset(schedulers);
  CampaignConfig config;
  config.instances = instances;
  config.threads = threads;
  config.share_instances = true;
  config.schedulers.assign(schedulers, "window-probe");
  const InstanceGenerator generator = [](std::size_t index, std::uint64_t) {
    return window_probe().generate(index);
  };
  const CampaignResult result = run_campaign(generator, config);
  for (const CampaignCell& cell : result.cells)
    EXPECT_EQ(cell.scheduled, instances) << "threads=" << threads;
  for (std::size_t i = 0; i < instances; ++i)
    EXPECT_EQ(window_probe().calls[i].load(), 1u)
        << "instance " << i << " generated " << window_probe().calls[i]
        << " times (threads=" << threads << ")";
}
}  // namespace

TEST(CampaignRunner, SharedModeGeneratesAheadWithinABoundedWindow) {
  constexpr std::size_t kInstances = WindowProbe::kMaxInstances;
  WindowProbe& probe = window_probe();
  // One thread, exact order: index j is generated by the task just before
  // j's first one, ahead of that task's own read. So index i + 1 is
  // generated inside the last task of index i, before that task schedules;
  // with one scheduler that is i's first and only task, and index 1 comes
  // before index 0.
  for (const std::size_t schedulers : {1u, 4u}) {
    run_window_campaign(kInstances, schedulers, 1);
    ASSERT_EQ(probe.log.size(), kInstances);
    for (std::size_t k = 0; k < kInstances; ++k) {
      const WindowProbe::Generation& generation = probe.log[k];
      const std::size_t j = generation.index;
      EXPECT_EQ(j, schedulers == 1 && k < 2 ? 1 - k : k)
          << "generation " << k << ", schedulers=" << schedulers;
      EXPECT_EQ(generation.tasks_done, j == 0 ? 0 : j * schedulers - 1)
          << "index " << j << ", schedulers=" << schedulers;
      EXPECT_LE(generation.live, 2u) << "index " << j;
    }
  }
  // Threads: at most T tasks are in flight, and generation reaches at most
  // T tasks past the next unpicked one, so at most T + ceil(T / S) + 1
  // instances are resident, whatever the instance count.
  constexpr std::size_t kSchedulers = 4;
  for (const std::size_t threads : {2u, 4u, 8u}) {
    run_window_campaign(kInstances, kSchedulers, threads);
    const std::size_t bound =
        threads + (threads + kSchedulers - 1) / kSchedulers + 1;
    ASSERT_EQ(probe.log.size(), kInstances);
    for (const WindowProbe::Generation& generation : probe.log)
      EXPECT_LE(generation.live, bound)
          << "generating index " << generation.index
          << " (threads=" << threads << ")";
  }
}

namespace {
// A scheduler that trips a precondition three layers down (an empty window
// handed to StepProfile::min_in) -- exactly the failure mode the old
// catch(invalid_argument) skip handling used to misread as out-of-domain.
class BrokenPreconditionScheduler final : public Scheduler {
 public:
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    StepProfile profile(static_cast<std::int64_t>(instance.m()));
    (void)profile.min_in(5, 5);  // RESCHED_REQUIRE(from < to) fails
    return Schedule(instance.n());
  }
  [[nodiscard]] std::string name() const override {
    return "broken-precondition";
  }
};
}  // namespace

TEST(CampaignRunner, PreconditionViolationInsideSchedulerAbortsTheCampaign) {
  // Once per process (registration is not idempotent, and --gtest_repeat
  // would otherwise re-register). NOTE: this pollutes the global registry
  // for the rest of the binary -- every campaign test here must pass an
  // explicit scheduler list, never rely on the "empty = all" default.
  static const bool registered = [] {
    register_scheduler(
        "broken-precondition",
        [] { return std::make_unique<BrokenPreconditionScheduler>(); },
        "test-only: trips a profile precondition deep in the stack");
    return true;
  }();
  (void)registered;
  CampaignConfig config;
  config.instances = 3;
  config.threads = 2;
  config.schedulers = {"fcfs", "broken-precondition"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  // Not a skip: the campaign must abort with the underlying error.
  EXPECT_THROW((void)run_campaign(generator, config), std::invalid_argument);
}

namespace {
// Starts every job at 0, so any instance wider than the machine comes back
// overloaded: a feasible-looking outcome that only validation can reject.
class AllAtZeroScheduler final : public Scheduler {
 public:
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    Schedule schedule(instance.n());
    for (const Job& job : instance.jobs()) schedule.set_start(job.id, 0);
    return schedule;
  }
  [[nodiscard]] std::string name() const override { return "all-at-zero"; }
};

// Runs a campaign of all-at-zero schedules and returns what it threw.
std::exception_ptr infeasible_campaign_error(bool validate) {
  static const bool registered = [] {
    register_scheduler(
        "all-at-zero", [] { return std::make_unique<AllAtZeroScheduler>(); },
        "test-only: starts every job at 0, overloading the machine");
    return true;
  }();
  (void)registered;
  CampaignConfig config;
  config.instances = 3;
  config.threads = 2;
  config.validate = validate;
  config.schedulers = {"fcfs", "all-at-zero"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, true);
  };
  try {
    (void)run_campaign(generator, config);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}
}  // namespace

// Each schedule is checked once; whichever check reports, an infeasible
// schedule still aborts the campaign.
TEST(CampaignRunner, InfeasibleScheduleAbortsNamingTheSchedulerWhenValidating) {
  const std::exception_ptr error = infeasible_campaign_error(true);
  ASSERT_TRUE(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {
    FAIL() << "expected the invariant breach, got a precondition: "
           << e.what();
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scheduler 'all-at-zero' produced an infeasible"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("capacity exceeded"), std::string::npos) << what;
  }
}

TEST(CampaignRunner, InfeasibleScheduleAbortsInMetricsWithoutValidateMode) {
  const std::exception_ptr error = infeasible_campaign_error(false);
  ASSERT_TRUE(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("metrics need a feasible schedule: capacity exceeded"),
              std::string::npos)
        << what;
  }
}

TEST(CampaignRunner, UnknownSchedulerThrowsBeforeAnyWork) {
  CampaignConfig config;
  config.instances = 2;
  config.schedulers = {"no-such-algorithm"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  EXPECT_THROW((void)run_campaign(generator, config), std::invalid_argument);
}

TEST(CampaignRunner, GeneratorExceptionsPropagateToTheCaller) {
  CampaignConfig config;
  config.instances = 6;
  config.threads = 3;
  config.schedulers = {"fcfs"};
  const InstanceGenerator generator = [](std::size_t index, std::uint64_t) {
    if (index == 3) throw std::runtime_error("generator failure");
    return sweep_instance(index + 1, false);
  };
  EXPECT_THROW((void)run_campaign(generator, config), std::runtime_error);
}

TEST(CampaignRunner, EmptyCampaignProducesEmptyCells) {
  CampaignConfig config;
  config.instances = 0;
  config.schedulers = {"fcfs"};
  const InstanceGenerator generator = [](std::size_t, std::uint64_t seed) {
    return sweep_instance(seed, false);
  };
  const CampaignResult result = run_campaign(generator, config);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_EQ(result.cells[0].scheduled, 0u);
  EXPECT_EQ(result.cells[0].skipped, 0u);
  EXPECT_EQ(result.to_table().rows(), 1u);
}

}  // namespace
}  // namespace resched
