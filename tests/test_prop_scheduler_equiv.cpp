// Cross-scheduler metamorphic suite: golden schedules + feasibility oracles.
//
// Every registered scheduler is a deterministic function Instance ->
// Schedule, so its output on a fixed seeded instance family is a behavioral
// fingerprint of the whole stack underneath it (StepProfile, FreeProfile,
// list orders, backfilling logic). The FNV-1a hashes below were recorded
// from the implementation BEFORE the segment-tree index rewrite of
// StepProfile; this suite asserts the rewrite (and any future profile
// optimization) is byte-identical on every scheduler's output -- an
// end-to-end differential oracle that a microbenchmark-driven change cannot
// silently pass while altering schedules.
//
// Independently of the goldens, every schedule is re-validated from scratch
// (core/schedule.hpp) and checked against the paper's guarantee for its
// instance class (bounds/checker.hpp): kViolated would falsify the
// implementation even on a hash match.
//
// Regenerating goldens (only after an INTENDED behavioral change): set the
// RESCHED_PRINT_GOLDENS environment variable and run this binary; it prints
// the replacement table and fails, so a stale table cannot slip through CI.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "algorithms/scheduler.hpp"
#include "bounds/checker.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t schedule_hash(const Instance& instance,
                            const Schedule& schedule) {
  std::uint64_t h = 1469598103934665603ull;
  for (JobId id = 0; id < static_cast<JobId>(instance.n()); ++id)
    h = fnv1a(h, static_cast<std::uint64_t>(schedule.start(id)));
  return h;
}

// Must stay in lock-step with the recorded goldens: any change here is a
// golden regeneration.
Instance golden_instance(std::uint64_t seed, bool reserved, bool online) {
  WorkloadConfig config;
  config.n = 60;
  config.m = 48;
  config.alpha = Rational(1, 2);
  config.p_max = 120;
  if (online) config.mean_interarrival = 3.0;
  Instance instance = random_workload(config, seed);
  if (reserved) {
    AlphaReservationConfig resa;
    resa.alpha = Rational(1, 2);
    resa.count = 10;
    resa.horizon = 600;
    resa.max_duration = 80;
    instance = with_alpha_restricted_reservations(
        instance, resa, seed ^ 0x9e3779b97f4a7c15ull);
  }
  return instance;
}

struct Golden {
  std::uint64_t seed;
  bool reserved;
  bool online;
  const char* scheduler;
  std::uint64_t hash;
};

// Recorded from the pre-index-rewrite implementation (PR 1 state). 90
// entries: 3 seeds x {offline, online} x {open, reserved} x every scheduler
// whose domain admits the instance.
constexpr Golden kGoldens[] = {
    {101ull, 0, 0, "conservative", 0x8baee2ebf4521ecfull},
    {101ull, 0, 0, "easy", 0xf3b7b50ea5d89dbfull},
    {101ull, 0, 0, "fcfs", 0xa1547fc863ecaa07ull},
    {101ull, 0, 0, "local-search", 0x3e1e5c3437748345ull},
    {101ull, 0, 0, "lsrc", 0x85d0db0ace48c9aaull},
    {101ull, 0, 0, "lsrc-lpt", 0x3e1e5c3437748345ull},
    {101ull, 0, 0, "portfolio", 0x3e1e5c3437748345ull},
    {101ull, 0, 0, "shelf-ff", 0xe05d8542377ec726ull},
    {101ull, 0, 0, "shelf-nf", 0xa27d12fb592b06ebull},
    {101ull, 0, 1, "conservative", 0xf7646e6bc7cba359ull},
    {101ull, 0, 1, "easy", 0xa3fa2ebbc6b7c252ull},
    {101ull, 0, 1, "fcfs", 0x5a813b636f01a710ull},
    {101ull, 0, 1, "local-search", 0x9861139a9d8c7424ull},
    {101ull, 0, 1, "lsrc", 0x21eca10164b0f3abull},
    {101ull, 0, 1, "lsrc-lpt", 0x7edb7012229f8cb8ull},
    {101ull, 0, 1, "portfolio", 0x7edb7012229f8cb8ull},
    {101ull, 1, 0, "conservative", 0xafd536f44bcd564dull},
    {101ull, 1, 0, "easy", 0x780eec923927695bull},
    {101ull, 1, 0, "fcfs", 0x0951fc21f66646bfull},
    {101ull, 1, 0, "local-search", 0x36cec27ed12faec6ull},
    {101ull, 1, 0, "lsrc", 0xde5ccbaedc08c7eaull},
    {101ull, 1, 0, "lsrc-lpt", 0x69bf20fb43932d04ull},
    {101ull, 1, 0, "portfolio", 0x69bf20fb43932d04ull},
    {101ull, 1, 1, "conservative", 0x162fc3226d8f57eaull},
    {101ull, 1, 1, "easy", 0x0783991244cac46bull},
    {101ull, 1, 1, "fcfs", 0x561a5d7a965a03ffull},
    {101ull, 1, 1, "local-search", 0x8bea6d8260d84a6bull},
    {101ull, 1, 1, "lsrc", 0x527b8e931ddc1f27ull},
    {101ull, 1, 1, "lsrc-lpt", 0x8bea6d8260d84a6bull},
    {101ull, 1, 1, "portfolio", 0x8bea6d8260d84a6bull},
    {202ull, 0, 0, "conservative", 0xd8617cd16b5900e6ull},
    {202ull, 0, 0, "easy", 0x1521d6e5e3244b1cull},
    {202ull, 0, 0, "fcfs", 0xe3639404cc94ca3dull},
    {202ull, 0, 0, "local-search", 0x5ff98a7ea91bbf11ull},
    {202ull, 0, 0, "lsrc", 0x1c6c28b0ba3e7fd2ull},
    {202ull, 0, 0, "lsrc-lpt", 0x363793306d7d1587ull},
    {202ull, 0, 0, "portfolio", 0x363793306d7d1587ull},
    {202ull, 0, 0, "shelf-ff", 0xbbc8b2a3c659d6b8ull},
    {202ull, 0, 0, "shelf-nf", 0xce8574c68fe4a687ull},
    {202ull, 0, 1, "conservative", 0xd557029714678ae9ull},
    {202ull, 0, 1, "easy", 0xd557029714678ae9ull},
    {202ull, 0, 1, "fcfs", 0x05c67b4d1336e2f7ull},
    {202ull, 0, 1, "local-search", 0x4b93ad9b01e2cd3eull},
    {202ull, 0, 1, "lsrc", 0x7e7181ff07f0949cull},
    {202ull, 0, 1, "lsrc-lpt", 0x8306d9f919eaee82ull},
    {202ull, 0, 1, "portfolio", 0x8306d9f919eaee82ull},
    {202ull, 1, 0, "conservative", 0x37d2224d316b101dull},
    {202ull, 1, 0, "easy", 0x4aa4d4e262dc36ebull},
    {202ull, 1, 0, "fcfs", 0x1a4b233d0ec33c62ull},
    {202ull, 1, 0, "local-search", 0xa6db1e846c232532ull},
    {202ull, 1, 0, "lsrc", 0xfe6601792716557eull},
    {202ull, 1, 0, "lsrc-lpt", 0x49c9113950442918ull},
    {202ull, 1, 0, "portfolio", 0xb861240ab9d5710cull},
    {202ull, 1, 1, "conservative", 0x41ff8c62314c2df7ull},
    {202ull, 1, 1, "easy", 0xdb61390c823ce35cull},
    {202ull, 1, 1, "fcfs", 0xc272448460daf8ceull},
    {202ull, 1, 1, "local-search", 0xc140351c016a1660ull},
    {202ull, 1, 1, "lsrc", 0x917791712f56047aull},
    {202ull, 1, 1, "lsrc-lpt", 0xc140351c016a1660ull},
    {202ull, 1, 1, "portfolio", 0xc140351c016a1660ull},
    {303ull, 0, 0, "conservative", 0x84dc86716ac90f6cull},
    {303ull, 0, 0, "easy", 0x339ef4f2de424399ull},
    {303ull, 0, 0, "fcfs", 0x0d8ade42144d7e6dull},
    {303ull, 0, 0, "local-search", 0x48127197b5862dc9ull},
    {303ull, 0, 0, "lsrc", 0x013f3beaad018ec7ull},
    {303ull, 0, 0, "lsrc-lpt", 0x48127197b5862dc9ull},
    {303ull, 0, 0, "portfolio", 0x48127197b5862dc9ull},
    {303ull, 0, 0, "shelf-ff", 0x3e5065f88da72561ull},
    {303ull, 0, 0, "shelf-nf", 0xce52d56bebc2a590ull},
    {303ull, 0, 1, "conservative", 0xec0dac501f2d53b8ull},
    {303ull, 0, 1, "easy", 0xec0dac501f2d53b8ull},
    {303ull, 0, 1, "fcfs", 0x40a814b6ecba1bdaull},
    {303ull, 0, 1, "local-search", 0x0bcbb4b2b07bf4baull},
    {303ull, 0, 1, "lsrc", 0x6f9fe52da7e001adull},
    {303ull, 0, 1, "lsrc-lpt", 0x0bcbb4b2b07bf4baull},
    {303ull, 0, 1, "portfolio", 0x0bcbb4b2b07bf4baull},
    {303ull, 1, 0, "conservative", 0x202f13109a248f2bull},
    {303ull, 1, 0, "easy", 0x56bddd188e09bf65ull},
    {303ull, 1, 0, "fcfs", 0x576c14938a94a101ull},
    {303ull, 1, 0, "local-search", 0xf0d7661d8e81ee33ull},
    {303ull, 1, 0, "lsrc", 0x9f1b37969ea30dc4ull},
    {303ull, 1, 0, "lsrc-lpt", 0x6d33b5f2dcf33189ull},
    {303ull, 1, 0, "portfolio", 0xbbaf5b63c6fa11a2ull},
    {303ull, 1, 1, "conservative", 0x28b4efc57623bf1full},
    {303ull, 1, 1, "easy", 0x35b795cc9685ab15ull},
    {303ull, 1, 1, "fcfs", 0xb3f2cf1a8c39f131ull},
    {303ull, 1, 1, "local-search", 0x22cfbdb44da5444bull},
    {303ull, 1, 1, "lsrc", 0xc5871991ea643174ull},
    {303ull, 1, 1, "lsrc-lpt", 0x22cfbdb44da5444bull},
    {303ull, 1, 1, "portfolio", 0x22cfbdb44da5444bull},
};

TEST(PropSchedulerEquiv, GoldenSchedulesAndOraclesAcrossTheRegistry) {
  const bool print_goldens = std::getenv("RESCHED_PRINT_GOLDENS") != nullptr;
  std::size_t checked = 0;
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    for (const bool reserved : {false, true}) {
      for (const bool online : {false, true}) {
        const Instance instance = golden_instance(seed, reserved, online);
        for (const std::string& name : registered_schedulers()) {
          const auto scheduler = make_scheduler(name);
          ScheduleOutcome outcome = scheduler->schedule(instance);
          if (!outcome.ok()) {
            // Outside the algorithm's domain, as when recording -- and the
            // capability introspection must agree with the outcome.
            EXPECT_FALSE(scheduler->supports(instance))
                << name << " returned a DomainError but supports() says yes";
            continue;
          }
          EXPECT_TRUE(scheduler->supports(instance))
              << name << " produced a schedule but supports() says no";
          const Schedule schedule = std::move(outcome).value();
          const std::uint64_t hash = schedule_hash(instance, schedule);
          if (print_goldens) {
            std::printf("{%lluull, %d, %d, \"%s\", 0x%016llxull},\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<int>(reserved), static_cast<int>(online),
                        name.c_str(),
                        static_cast<unsigned long long>(hash));
            continue;
          }

          // Feasibility oracle: independent re-validation from scratch.
          const ValidationResult validation = schedule.validate(instance);
          ASSERT_TRUE(validation.ok)
              << name << " on seed " << seed << ": " << validation.error;
          // Theorem oracle: the paper's guarantee must never be violated.
          const GuaranteeReport report = check_guarantee(instance, schedule);
          ASSERT_NE(report.compliance, Compliance::kViolated)
              << name << " on seed " << seed << ": " << report.detail;

          // Golden oracle: byte-identical to the pre-rewrite schedule.
          bool found = false;
          for (const Golden& golden : kGoldens) {
            if (golden.seed != seed || golden.reserved != reserved ||
                golden.online != online || name != golden.scheduler)
              continue;
            found = true;
            ASSERT_EQ(hash, golden.hash)
                << name << " diverged on seed " << seed
                << " reserved=" << reserved << " online=" << online;
          }
          ASSERT_TRUE(found)
              << "no golden recorded for " << name << " on seed " << seed
              << " reserved=" << reserved << " online=" << online
              << " -- a newly registered scheduler needs a golden entry";
          ++checked;
        }
      }
    }
  }
  ASSERT_FALSE(print_goldens)
      << "RESCHED_PRINT_GOLDENS is set: table printed, refusing to pass";
  ASSERT_EQ(checked, sizeof(kGoldens) / sizeof(kGoldens[0]));
}

TEST(PropSchedulerEquiv, SchedulersAreDeterministicAcrossRepeatedRuns) {
  const Instance instance = golden_instance(101, true, true);
  for (const SchedulerInfo& info : registered_scheduler_info()) {
    ScheduleOutcome first = make_scheduler(info.name)->schedule(instance);
    if (!first.ok()) continue;
    const Schedule second =
        make_scheduler(info.name)->schedule(instance).value();
    ASSERT_EQ(first.value(), second)
        << info.name << " is not run-to-run deterministic";
  }
}

}  // namespace
}  // namespace resched
