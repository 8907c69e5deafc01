// Theorem-compliance checking for produced schedules.
//
// Given an (instance, schedule) pair, determine which of the paper's
// guarantees applies to the instance class, and verify the schedule against
// it. Verification is sound:
//  * with an exact optimum (small instances, B&B) a violated inequality is
//    reported kViolated -- this would falsify the implementation (or the
//    theorem);
//  * with only a certified lower bound, makespan <= bound * LB proves
//    compliance (kProven); otherwise the check is kInconclusive, never a
//    false alarm.
//
// Also implements a direct pointwise verification of the appendix's
// Lemma 1 on LSRC schedules (no-reservation instances):
//   forall t, t' in [0, C_max):  t' >= t + p_max  =>  r(t) + r(t') >= m + 1.
#pragma once

#include <optional>
#include <string>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "util/rational.hpp"

namespace resched {

enum class Compliance { kProven, kInconclusive, kViolated };

[[nodiscard]] std::string to_string(Compliance compliance);

struct GuaranteeReport {
  std::string guarantee;     // human-readable name, e.g. "2 - 1/m (Thm 2)"
  Rational bound{0};         // the multiplicative bound, 0 if none applies
  bool has_guarantee = false;
  Time makespan = 0;
  Time reference = 0;        // exact C* or certified lower bound
  bool reference_is_exact = false;
  Compliance compliance = Compliance::kInconclusive;
  std::string detail;
};

// exact_optimum: pass the B&B result when available; otherwise the certified
// lower bound is used as reference. The schedule must be feasible (checked;
// an infeasible schedule yields kViolated with an explanatory detail).
[[nodiscard]] GuaranteeReport check_guarantee(
    const Instance& instance, const Schedule& schedule,
    std::optional<Time> exact_optimum = std::nullopt);

// The same report without the feasibility check. Precondition:
// schedule.validate(instance) has just returned ok -- for a caller that
// has validated already and must not pay for a second check. On any other
// schedule the verdict is meaningless.
[[nodiscard]] GuaranteeReport guarantee_of_feasible(
    const Instance& instance, const Schedule& schedule,
    std::optional<Time> exact_optimum = std::nullopt);

struct Lemma1Report {
  bool holds = true;
  // Witness pair when violated.
  Time t = 0;
  Time t_prime = 0;
  std::int64_t r_sum = 0;
};

// Requires a feasible schedule on a no-reservation, no-release instance
// (Lemma 1's setting). Checks the implication at every breakpoint pair that
// matters (r is a step function, so finitely many candidates suffice), on
// the load steps of the sweep its feasibility check built
// (Schedule::checked_sweep): linear after the sweep's radix sort. A
// violation reports the earliest t, and the earliest t' >= t + p_max where
// r attains its minimum over [t + p_max, C).
[[nodiscard]] Lemma1Report check_lemma1(const Instance& instance,
                                        const Schedule& schedule);

}  // namespace resched
