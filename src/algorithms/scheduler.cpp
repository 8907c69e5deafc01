#include "algorithms/scheduler.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "algorithms/conservative_bf.hpp"
#include "algorithms/easy_bf.hpp"
#include "algorithms/fcfs.hpp"
#include "algorithms/lsrc.hpp"
#include "algorithms/portfolio.hpp"
#include "algorithms/shelf.hpp"
#include "util/require.hpp"

namespace resched {

std::string to_string(DomainReason reason) {
  switch (reason) {
    case DomainReason::kReservations:
      return "reservations";
    case DomainReason::kReleaseTimes:
      return "release-times";
    case DomainReason::kOther:
      return "other";
  }
  return "?";
}

const Schedule& ScheduleOutcome::value() const& {
  RESCHED_CHECK_MSG(ok(), "ScheduleOutcome::value() on a domain error: " +
                              std::get<DomainError>(result_).message);
  return std::get<Schedule>(result_);
}

Schedule ScheduleOutcome::value() && {
  RESCHED_CHECK_MSG(ok(), "ScheduleOutcome::value() on a domain error: " +
                              std::get<DomainError>(result_).message);
  return std::move(std::get<Schedule>(result_));
}

const DomainError& ScheduleOutcome::error() const {
  RESCHED_CHECK_MSG(!ok(), "ScheduleOutcome::error() on a schedule");
  return std::get<DomainError>(result_);
}

Schedule Scheduler::replan(const ReplanRequest& request) const {
  (void)request;
  fail_invariant("replan", __FILE__, __LINE__,
                 name() + " does not implement incremental replan "
                          "(capabilities().replan is ReplanMode::kNone)");
}

std::optional<DomainError> Scheduler::out_of_domain(
    const Instance& instance) const {
  const Capabilities caps = capabilities();
  if (!caps.reservations && !instance.is_rigid_only())
    return DomainError{DomainReason::kReservations,
                       name() + " does not support reservations"};
  if (!caps.release_times && instance.has_release_times())
    return DomainError{DomainReason::kReleaseTimes,
                       name() + " does not support release times"};
  return std::nullopt;
}

namespace {

struct RegistryEntry {
  SchedulerFactory factory;
  std::string description;
  // Probed from one factory-made instance at registration time, so
  // metadata queries never instantiate schedulers again.
  Capabilities capabilities;
};

std::map<std::string, RegistryEntry>& registry() {
  static std::map<std::string, RegistryEntry> instance;
  return instance;
}

// Single insertion point: probes the capability set once, at registration.
void add_entry(std::map<std::string, RegistryEntry>& reg,
               const std::string& name, SchedulerFactory factory,
               std::string description) {
  RESCHED_REQUIRE_MSG(!reg.count(name),
                      "scheduler already registered: " + name);
  const Capabilities capabilities = factory()->capabilities();
  reg[name] =
      RegistryEntry{std::move(factory), std::move(description), capabilities};
}

// Built-ins are registered lazily and explicitly (static-initialiser
// registration inside a static library gets dropped by the linker for
// translation units nothing else references).
// resched-lint: hot-path-alloc-audited(one-time lazy registry build, cold) [function]
void ensure_builtins() {
  static const bool done = [] {
    auto& reg = registry();
    add_entry(reg, "lsrc",
              [] { return std::make_unique<LsrcScheduler>(
                       ListOrder::kSubmission); },
              "list scheduling (submission order), the paper's LSRC");
    add_entry(reg, "lsrc-lpt",
              [] { return std::make_unique<LsrcScheduler>(ListOrder::kLpt); },
              "list scheduling, longest processing time first");
    add_entry(reg, "fcfs", [] { return std::make_unique<FcfsScheduler>(); },
              "strict First Come First Served (non-overtaking)");
    add_entry(reg, "conservative",
              [] { return std::make_unique<ConservativeBackfillScheduler>(); },
              "conservative backfilling (no previously placed job delayed)");
    add_entry(reg, "easy",
              [] { return std::make_unique<EasyBackfillScheduler>(); },
              "EASY aggressive backfilling (head-only protection)");
    add_entry(reg, "shelf-ff",
              [] { return std::make_unique<ShelfScheduler>(
                       ShelfPolicy::kFirstFit); },
              "FFDH shelf packing (offline, rigid-only)");
    add_entry(reg, "shelf-nf",
              [] { return std::make_unique<ShelfScheduler>(
                       ShelfPolicy::kNextFit); },
              "NFDH shelf packing (offline, rigid-only)");
    add_entry(reg, "portfolio",
              [] { return std::make_unique<PortfolioScheduler>(); },
              "best LSRC schedule across priority orders");
    add_entry(reg, "local-search",
              [] { return std::make_unique<LocalSearchScheduler>(); },
              "hill-climbing over LSRC priority lists (seeded, budgeted)");
    return true;
  }();
  (void)done;
}

}  // namespace

void register_scheduler(const std::string& name, SchedulerFactory factory,
                        std::string description) {
  ensure_builtins();
  add_entry(registry(), name, std::move(factory), std::move(description));
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  ensure_builtins();
  const auto it = registry().find(name);
  RESCHED_REQUIRE_MSG(it != registry().end(), "unknown scheduler: " + name);
  return it->second.factory();
}

std::vector<std::string> registered_schedulers() {
  ensure_builtins();
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, entry] : registry()) names.push_back(name);
  return names;
}

std::vector<SchedulerInfo> registered_scheduler_info() {
  ensure_builtins();
  std::vector<SchedulerInfo> out;
  out.reserve(registry().size());
  // Pure metadata read: capabilities were cached when the entry was
  // registered, so this never instantiates a scheduler.
  for (const auto& [name, entry] : registry())
    out.push_back(SchedulerInfo{name, entry.description, entry.capabilities});
  return out;
}

}  // namespace resched
