// Scheduler API v2: ScheduleOutcome semantics, capability introspection,
// registry metadata, and capability-aware composition (portfolio,
// online-batch).
//
// Contract under test (algorithms/scheduler.hpp): out-of-domain is a NORMAL
// result carried by the typed DomainError arm, produced only at scheduler
// entry points; consulting the wrong side of an outcome is an invariant
// violation (logic_error); capabilities() and supports() agree with what
// schedule() actually does.
#include "algorithms/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "algorithms/online_batch.hpp"
#include "algorithms/portfolio.hpp"
#include "algorithms/shelf.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

Instance open_instance() {
  return Instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 0, ""},
                      Job{2, 1, 4, 0, ""}});
}

Instance reserved_instance() {
  return Instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 0, ""}},
                  {Reservation{0, 1, 2, 1, ""}});
}

Instance online_instance() {
  return Instance(4, {Job{0, 2, 3, 0, ""}, Job{1, 2, 2, 5, ""}});
}

TEST(ScheduleOutcome, SuccessArmExposesTheScheduleOnly) {
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 3);
  const ScheduleOutcome outcome(std::move(schedule));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(static_cast<bool>(outcome));
  EXPECT_EQ(outcome.value().start(1), 3);
  // Consulting the wrong side is a caller bug, not a recoverable state.
  EXPECT_THROW((void)outcome.error(), std::logic_error);
}

TEST(ScheduleOutcome, ErrorArmExposesTheDomainErrorOnly) {
  const ScheduleOutcome outcome(
      DomainError{DomainReason::kReleaseTimes, "strictly offline"});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().reason, DomainReason::kReleaseTimes);
  EXPECT_EQ(outcome.error().message, "strictly offline");
  EXPECT_THROW((void)outcome.value(), std::logic_error);
}

TEST(ScheduleOutcome, RvalueValueMovesTheScheduleOut) {
  Schedule schedule(1);
  schedule.set_start(0, 7);
  ScheduleOutcome outcome(std::move(schedule));
  const Schedule moved = std::move(outcome).value();
  EXPECT_EQ(moved.start(0), 7);
}

TEST(DomainReason, NamesAreStable) {
  // skip_reasons() strings and driver output key off these.
  EXPECT_EQ(to_string(DomainReason::kReservations), "reservations");
  EXPECT_EQ(to_string(DomainReason::kReleaseTimes), "release-times");
  EXPECT_EQ(to_string(DomainReason::kOther), "other");
}

TEST(Capabilities, DefaultIsUnrestricted) {
  const Capabilities caps;
  EXPECT_TRUE(caps.release_times);
  EXPECT_TRUE(caps.reservations);
  EXPECT_TRUE(caps.deterministic);
}

TEST(Registry, InfoCoversEverySchedulerWithDescriptions) {
  const auto names = registered_schedulers();
  const auto info = registered_scheduler_info();
  ASSERT_EQ(info.size(), names.size());
  for (std::size_t i = 0; i < info.size(); ++i) {
    EXPECT_EQ(info[i].name, names[i]);  // same (sorted) order
    EXPECT_FALSE(info[i].description.empty()) << info[i].name;
    EXPECT_TRUE(info[i].capabilities.deterministic) << info[i].name;
  }
}

namespace {
// Counts constructions so the metadata-caching contract is observable.
class CountingScheduler final : public Scheduler {
 public:
  explicit CountingScheduler(std::atomic<int>* constructions) {
    constructions->fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] ScheduleOutcome schedule(
      const Instance& instance) const override {
    return Schedule(instance.n());
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
};
}  // namespace

TEST(Registry, MetadataIsCachedAtRegistrationTime) {
  // register_scheduler probes capabilities through one factory call at
  // registration; registered_scheduler_info() afterwards is a pure
  // metadata read -- it used to instantiate every scheduler per call.
  // NOTE: pollutes the global registry for the rest of the binary, like
  // the other registration tests here; registered once per process.
  static std::atomic<int> constructions{0};
  static const bool registered = [] {
    register_scheduler(
        "counting",
        [] { return std::make_unique<CountingScheduler>(&constructions); },
        "test-only: counts factory constructions");
    return true;
  }();
  (void)registered;
  EXPECT_EQ(constructions.load(), 1) << "exactly one registration-time probe";

  for (int call = 0; call < 3; ++call) {
    const auto info = registered_scheduler_info();
    const auto it = std::find_if(
        info.begin(), info.end(),
        [](const SchedulerInfo& i) { return i.name == "counting"; });
    ASSERT_NE(it, info.end());
    EXPECT_TRUE(it->capabilities.reservations);
  }
  EXPECT_EQ(constructions.load(), 1)
      << "registered_scheduler_info must not instantiate schedulers";

  // make_scheduler still constructs fresh instances.
  (void)make_scheduler("counting");
  EXPECT_EQ(constructions.load(), 2);
}

TEST(Registry, CapabilityMatrixMatchesTheDocumentedDomains) {
  for (const SchedulerInfo& info : registered_scheduler_info()) {
    const bool shelf =
        info.name == "shelf-ff" || info.name == "shelf-nf";
    EXPECT_EQ(info.capabilities.reservations, !shelf) << info.name;
    EXPECT_EQ(info.capabilities.release_times, !shelf) << info.name;
  }
}

TEST(Scheduler, SupportsAgreesWithScheduleAcrossTheRegistry) {
  for (const Instance& instance :
       {open_instance(), reserved_instance(), online_instance()}) {
    for (const auto& name : registered_schedulers()) {
      const auto scheduler = make_scheduler(name);
      const bool supported = scheduler->supports(instance);
      const ScheduleOutcome outcome = scheduler->schedule(instance);
      EXPECT_EQ(outcome.ok(), supported) << name;
      if (!supported) {
        const auto violation = scheduler->out_of_domain(instance);
        ASSERT_TRUE(violation.has_value()) << name;
        EXPECT_EQ(violation->reason, outcome.error().reason) << name;
      }
    }
  }
}

TEST(Portfolio, OutOfDomainExtraMembersAreSkippedUpFront) {
  // A shelf member cannot take a reserved instance; the portfolio filters
  // it via supports() instead of catching exceptions, so the result equals
  // the plain LSRC-family portfolio's.
  const Instance instance = reserved_instance();
  const Schedule plain =
      PortfolioScheduler(2, 1).schedule(instance).value();
  const Schedule with_shelf =
      PortfolioScheduler(2, 1, {"shelf-ff"}).schedule(instance).value();
  EXPECT_EQ(plain, with_shelf);
}

TEST(Portfolio, InDomainExtraMembersCompete) {
  // On an open offline instance the shelf member participates; the
  // portfolio can only improve (or match) by considering more candidates.
  const Instance instance = open_instance();
  const Time plain =
      PortfolioScheduler(2, 1).schedule(instance).value().makespan(instance);
  const Schedule mixed =
      PortfolioScheduler(2, 1, {"shelf-ff", "shelf-nf"})
          .schedule(instance)
          .value();
  EXPECT_TRUE(mixed.validate(instance).ok);
  EXPECT_LE(mixed.makespan(instance), plain);
}

TEST(OnlineBatch, InheritsBaseCapabilities) {
  const OnlineBatchScheduler wrapper(make_scheduler("lsrc"));
  const Capabilities caps = wrapper.capabilities();
  EXPECT_TRUE(caps.release_times);
  EXPECT_TRUE(caps.reservations);
  // The base's replan() is not the wrapper's: a service must take the
  // scratch path through the wrapper's own schedule().
  EXPECT_FALSE(caps.incremental_replan);
  EXPECT_FALSE(caps.append_only_replan);
}

TEST(OnlineBatch, RejectsOfflineOnlyBaseAtConstruction) {
  // A base that cannot take release times cannot schedule epoch-pinned
  // batches; surfacing that at wrap time beats failing mid-campaign.
  EXPECT_THROW(OnlineBatchScheduler(make_scheduler("shelf-ff")),
               std::invalid_argument);
}

}  // namespace
}  // namespace resched
