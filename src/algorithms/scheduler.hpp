// Scheduler interface and registry (API v2).
//
// A Scheduler is a pure function Instance -> Schedule (no hidden state, no
// randomness unless seeded through options), which is what makes the
// worst-case experiments reproducible. Concrete algorithms:
//
//   lsrc          -- list scheduling with resource constraints (the paper's
//                    LSRC; equals the most aggressive backfilling variant),
//   fcfs          -- strict First Come First Served (non-overtaking),
//   conservative  -- conservative backfilling,
//   easy          -- EASY (aggressive) backfilling,
//   shelf         -- NFDH shelf packing (no-reservation instances only),
//
// each available through the registry by name for sweep drivers.
//
// ## Outcome semantics
//
// `schedule` returns a ScheduleOutcome: either a feasible schedule for every
// job of the instance, or a typed DomainError stating *why* the instance is
// outside the algorithm's domain (reason enum + human-readable message).
// Out-of-domain is a NORMAL result, produced only by explicit capability
// checks at the scheduler entry point -- a sweep over a heterogeneous
// registry consumes it without exception handling, and a campaign can count
// skip reasons instead of guessing.
//
// Everything else stays fatal: RESCHED_REQUIRE / RESCHED_CHECK failures
// anywhere below the entry point (malformed explicit priority lists,
// profile preconditions tripped three layers down, stalled event loops)
// throw std::invalid_argument / std::logic_error as before and are NEVER
// converted into a DomainError. A precondition violation inside a scheduler
// is a bug, not a skip.
//
// ## Capability introspection
//
// `capabilities()` declares the instance features an algorithm accepts, and
// `supports(instance)` / `out_of_domain(instance)` evaluate them against a
// concrete instance, so drivers filter up front instead of throw-and-catch.
// Capability matrix of the built-in registry:
//
//   scheduler      release times  reservations  deterministic  incremental
//   lsrc[,-lpt]        yes            yes            yes         decision-only
//   fcfs               yes            yes            yes         append-only
//   conservative       yes            yes            yes         append-only
//   easy               yes            yes            yes         decision-only
//   shelf-ff/-nf       no             no             yes             no
//   portfolio          yes            yes       yes (seeded)         no
//   local-search       yes            yes       yes (seeded)         no
//
// ("incremental" is the replan() contract, see Capabilities and
// ReplanRequest below: append-only schedulers plan the whole queue and keep
// the plan, decision-only ones return just the starts at now.)
//
// (Availability windows are not a separate capability: the paper's
// transformation reduces a machine profile m(t) to reservations, and
// instances carry only reservations -- see generators/transform.hpp.)
//
// The registry carries per-scheduler metadata (name, description, and the
// capability set probed from a factory-made instance) through
// registered_scheduler_info(), powering `resched_tool list-schedulers`
// and capability-aware sweep drivers.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace resched {

// Why an instance is outside a scheduler's domain. Kept deliberately small:
// a reason is an instance *feature* the algorithm does not model.
enum class DomainReason {
  kReservations,  // instance has reservations, algorithm is rigid-only
  kReleaseTimes,  // instance is online, algorithm is strictly offline
  kOther,         // scheduler-specific restriction (see the message)
};
inline constexpr std::size_t kDomainReasonCount = 3;

[[nodiscard]] std::string to_string(DomainReason reason);

// Typed out-of-domain verdict: machine-readable reason + human message.
struct DomainError {
  DomainReason reason = DomainReason::kOther;
  std::string message;
};

// What instance features a scheduler accepts. Default-constructed =
// unrestricted (the common case; only shelf packers restrict anything).
struct Capabilities {
  bool release_times = true;  // accepts instances with release > 0
  bool reservations = true;   // accepts instances with reservations
  bool deterministic = true;  // pure function of the instance (seeds fixed)
  // Implements replan(): the algorithm works directly against an
  // externally maintained FreeProfile at an absolute clock, so a resident
  // service repairs its plan on events instead of rebuilding instance +
  // profile from scratch per decision. What replan() returns depends on
  // append_only_replan below; either way it shares its core loop with
  // schedule() and agrees with schedule() on the equivalent from-scratch
  // instance -- pinned by the churn oracle fuzz.
  bool incremental_replan = false;
  // true:  append-only. replan() plans the whole queue and is bit-identical
  //   (modulo the time translation) to schedule(). It is a pure FCFS fold:
  //   each queued job is planned exactly once, in queue order, against the
  //   profile state left by its predecessors, and never revisited. Planning
  //   a queue suffix on the profile that still holds the prefix's committed
  //   plan therefore yields the same starts as replanning the whole queue
  //   (earliest-fit results are stable as `now` advances past nothing), so
  //   the service keeps the plan across arrivals and on-time completions
  //   and plans only the appended jobs (fcfs, conservative).
  // false: decision-only. replan() decides who starts at now and nothing
  //   else: it commits exactly those jobs on the profile and leaves every
  //   other job unscheduled. Its starts at now are the jobs schedule()
  //   starts at 0 on the scratch translation. Event-loop algorithms (easy,
  //   lsrc) are decision-only: their first pass at now fixes every start at
  //   now, and a late arrival can overtake an earlier job's pending
  //   decision, so a retained plan would be wrong anyway.
  bool append_only_replan = false;
};

class Arena;
class FreeProfile;

// Input to Scheduler::replan -- the incremental path of the resident
// service (sim/service_sim.*). Semantics contract:
//  * `free` is the persistent remaining-capacity profile in ABSOLUTE time:
//    already-started jobs and availability windows are subtracted; history
//    before `now` is dead (never queried, possibly compacted).
//  * `queue` holds the waiting jobs in FCFS order with dense ids 0..k-1;
//    release is the absolute arrival tick, all <= now.
//  * The scheduler places jobs only through commits on `free`; returned
//    starts are absolute.
//  * Append-only schedulers (Capabilities::append_only_replan) plan every
//    job (starts >= now), each one an ordinary permanent commit on `free`:
//    the caller keeps the plan, and to drop it returns each job's
//    occupancy by value (FreeProfile::adjust_capacity). replan(free,
//    queue, now) must equal schedule(instance) + now, where instance is the
//    scratch translation (releases 0, running jobs and windows as
//    reservations relative to now).
//  * Decision-only schedulers (every other incremental_replan scheduler)
//    start jobs at `now` only: each one is committed on `free` and returned
//    with start == now, and every other job comes back unscheduled. Those
//    permanent commits ARE the jobs starting. {j : start_j == now} must
//    equal {j : schedule(instance).start_j == 0}. A start later than now
//    would leak its capacity forever; the service loop rejects it.
//  * There is no wake-up list: a decision-only scheduler never looks past
//    now, and an append-only fold reads future capacity from `free` alone.
struct ReplanRequest {
  FreeProfile& free;
  const std::vector<Job>& queue;
  ProcCount m = 1;  // cluster size (demand bound for the event structures)
  Time now = 0;
  // Order floor for append-mode suffix planning (append_only_replan): the
  // largest start already planned for jobs ahead of `queue`. Schedulers
  // whose placement chains on queue order (fcfs non-overtaking) must not
  // start any queued job before this instant; overtaking schedulers
  // (conservative) ignore it. 0 = no prefix.
  Time not_before = 0;
  // Decision-scoped bump allocator for the scheduler's transient state
  // (queues, event sets, the returned Schedule's start array). Owned and
  // reset by the caller between decisions; null = plain heap (the batch
  // schedule() path). Anything allocated from it must not outlive the
  // decision that produced it.
  Arena* scratch = nullptr;
};

// Result of Scheduler::schedule -- a schedule, or a typed domain rejection.
// Accessors enforce their side: value() on an error (or error() on a
// schedule) trips RESCHED_CHECK, because consulting the wrong side is a
// caller bug, not a recoverable state.
class ScheduleOutcome {
 public:
  /*implicit*/ ScheduleOutcome(Schedule schedule)
      : result_(std::move(schedule)) {}
  /*implicit*/ ScheduleOutcome(DomainError error) : result_(std::move(error)) {}

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<Schedule>(result_);
  }
  explicit operator bool() const noexcept { return ok(); }

  // The schedule; requires ok().
  [[nodiscard]] const Schedule& value() const&;
  [[nodiscard]] Schedule value() &&;
  // The domain rejection; requires !ok().
  [[nodiscard]] const DomainError& error() const;

 private:
  std::variant<Schedule, DomainError> result_;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Produces a feasible schedule for every job of the instance, or a
  // DomainError when the instance is outside the algorithm's domain (see
  // the outcome semantics above). Only entry-point capability checks may
  // produce the error arm; deeper precondition violations throw.
  [[nodiscard]] virtual ScheduleOutcome schedule(
      const Instance& instance) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  // Instance features this algorithm accepts. Default: unrestricted.
  [[nodiscard]] virtual Capabilities capabilities() const {
    return Capabilities{};
  }

  // Incremental replan entry point (see ReplanRequest). Only meaningful
  // when capabilities().incremental_replan is true; the default trips
  // RESCHED_CHECK. Implementations share their core loop with schedule()
  // so the two agree by construction: the whole plan for append-only
  // schedulers, the starts at now for decision-only ones.
  [[nodiscard]] virtual Schedule replan(const ReplanRequest& request) const;

  // Evaluates capabilities() against a concrete instance: nullopt when the
  // instance is in-domain, otherwise the first violated capability as a
  // DomainError (the same one schedule() would return).
  [[nodiscard]] std::optional<DomainError> out_of_domain(
      const Instance& instance) const;
  [[nodiscard]] bool supports(const Instance& instance) const {
    return !out_of_domain(instance).has_value();
  }
};

using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

// Registry metadata: everything a sweep driver needs to decide whether (and
// how) to run a scheduler, without instantiating it per decision.
struct SchedulerInfo {
  std::string name;
  std::string description;
  Capabilities capabilities;
};

// Global registry (populated at static-init time by each algorithm's .cpp).
// The optional description is carried into registered_scheduler_info().
// Registration constructs one scheduler through `factory` to probe (and
// cache) its capability set; metadata queries afterwards never instantiate
// anything, so factories must be callable at registration time.
void register_scheduler(const std::string& name, SchedulerFactory factory,
                        std::string description = "");
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name);
[[nodiscard]] std::vector<std::string> registered_schedulers();
// Name + description + capability set for every registered scheduler, in
// name order. Reads the metadata cached at registration time -- no
// scheduler is constructed, so drivers may call this per decision.
[[nodiscard]] std::vector<SchedulerInfo> registered_scheduler_info();

}  // namespace resched
