#include "bounds/checker.hpp"

#include <algorithm>
#include <vector>

#include "core/availability.hpp"
#include "core/load_sweep.hpp"
#include "bounds/guarantees.hpp"
#include "bounds/lower_bounds.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

std::string to_string(Compliance compliance) {
  switch (compliance) {
    case Compliance::kProven: return "proven";
    case Compliance::kInconclusive: return "inconclusive";
    case Compliance::kViolated: return "VIOLATED";
  }
  return "?";
}

GuaranteeReport check_guarantee(const Instance& instance,
                                const Schedule& schedule,
                                std::optional<Time> exact_optimum) {
  const ValidationResult valid = schedule.validate(instance);
  if (!valid.ok) {
    GuaranteeReport report;
    report.compliance = Compliance::kViolated;
    report.detail = "infeasible schedule: " + valid.error;
    return report;
  }
  return guarantee_of_feasible(instance, schedule, exact_optimum);
}

GuaranteeReport guarantee_of_feasible(const Instance& instance,
                                      const Schedule& schedule,
                                      std::optional<Time> exact_optimum) {
  GuaranteeReport report;
  report.makespan = schedule.makespan(instance);

  // Which guarantee applies to this instance class? (Strongest first.)
  if (instance.is_rigid_only()) {
    report.guarantee = "C <= (2 - 1/m) C*  (Theorem 2)";
    report.bound = graham_bound(instance.m());
    report.has_guarantee = true;
  } else if (const auto alpha = best_alpha(instance); alpha.has_value()) {
    // Prefer the stronger of 2/alpha and, when U is non-increasing, the
    // Prop. 1 bound; both are valid when both apply.
    const Rational alpha_bound = alpha_upper_bound(*alpha);
    if (has_non_increasing_unavailability(instance)) {
      // m(C*) is unknown without C*, but m(t) is non-decreasing, so using
      // m(makespan) >= m(C*) would be unsound; use the always-weaker global
      // 2 - 1/m form which Prop. 1 implies.
      const Rational prop1_weak = graham_bound(instance.m());
      report.bound = std::min(alpha_bound, prop1_weak);
      report.guarantee = report.bound == prop1_weak
                             ? "C <= (2 - 1/m) C*  (Prop. 1, weak form)"
                             : "C <= (2/alpha) C*  (Prop. 3)";
    } else {
      report.bound = alpha_bound;
      report.guarantee = "C <= (2/alpha) C*  (Prop. 3)";
    }
    report.has_guarantee = true;
  } else if (has_non_increasing_unavailability(instance)) {
    report.guarantee = "C <= (2 - 1/m) C*  (Prop. 1, weak form)";
    report.bound = graham_bound(instance.m());
    report.has_guarantee = true;
  } else {
    report.guarantee = "none (unrestricted reservations, Theorem 1)";
    report.has_guarantee = false;
  }

  report.reference_is_exact = exact_optimum.has_value();
  report.reference = exact_optimum.has_value()
                         ? *exact_optimum
                         : makespan_lower_bound(instance);
  if (instance.n() == 0) {
    report.compliance = Compliance::kProven;
    report.detail = "empty job set";
    return report;
  }
  RESCHED_CHECK(report.reference > 0);

  if (!report.has_guarantee) {
    report.compliance = Compliance::kInconclusive;
    report.detail = "no finite guarantee exists for this instance class";
    return report;
  }

  const Rational ratio = makespan_ratio(report.makespan, report.reference);
  if (ratio <= report.bound) {
    report.compliance = Compliance::kProven;
    report.detail = "ratio " + ratio.to_string() + " <= bound " +
                    report.bound.to_string();
  } else if (report.reference_is_exact) {
    report.compliance = Compliance::kViolated;
    report.detail = "ratio " + ratio.to_string() + " vs exact C* exceeds " +
                    report.bound.to_string();
  } else {
    report.compliance = Compliance::kInconclusive;
    report.detail = "ratio vs lower bound " + ratio.to_string() +
                    " exceeds " + report.bound.to_string() +
                    " (reference is not exact)";
  }
  return report;
}

Lemma1Report check_lemma1(const Instance& instance, const Schedule& schedule) {
  RESCHED_REQUIRE_MSG(instance.is_rigid_only() && !instance.has_release_times(),
                      "Lemma 1 is stated for RIGIDSCHEDULING");
  CheckedSweep sweep = schedule.checked_sweep(instance);
  RESCHED_REQUIRE_MSG(sweep.verdict.ok,
                      "Lemma 1 check needs a feasible schedule");

  Lemma1Report report;
  const Time makespan = schedule.makespan(instance);
  const Time p_max = instance.p_max();
  if (makespan <= p_max) return report;  // no admissible pair (t, t')

  // r as steps over [0, C): segment k is [r[k].tick, r[k + 1].tick), and
  // the last step is the 0 at C. Without reservations the load is r.
  std::vector<LoadStep>& r = sweep.steps;
  if (r.front().tick > 0) r.insert(r.begin(), LoadStep{0, 0});
  // suffix_min[k] = min of r over [r[k].tick, C).
  const std::size_t segments = r.size() - 1;
  std::vector<std::int64_t> suffix_min(segments);
  std::int64_t low = r[segments - 1].load;
  for (std::size_t k = segments; k-- > 0;) {
    low = std::min(low, r[k].load);
    suffix_min[k] = low;
  }

  // r(t) + min_{t' in [t + p_max, C)} r(t') >= m + 1 must hold for every
  // t in [0, C - p_max). Both terms are step functions of t; their
  // breakpoints are r's and r's shifted left by p_max. Walking the merge of
  // the two in order, with one segment cursor for t and one for t + p_max,
  // visits every candidate t, the earliest violation first.
  const Time window_end = checked_sub(makespan, p_max);
  std::size_t at = 0;     // segment holding t
  std::size_t ahead = 0;  // segment holding t + p_max
  for (Time t = 0; t < window_end;) {
    while (r[at + 1].tick <= t) ++at;
    const Time window_start = checked_add(t, p_max);
    while (r[ahead + 1].tick <= window_start) ++ahead;
    const std::int64_t sum = checked_add(r[at].load, suffix_min[ahead]);
    if (sum <= instance.m()) {
      report.holds = false;
      report.t = t;
      // Witness t': the first point at or after t + p_max attaining the
      // suffix minimum.
      std::size_t k = ahead;
      while (r[k].load != suffix_min[ahead]) ++k;
      report.t_prime = k == ahead ? window_start : r[k].tick;
      report.r_sum = sum;
      return report;
    }
    t = std::min(r[at + 1].tick, checked_sub(r[ahead + 1].tick, p_max));
  }
  return report;
}

}  // namespace resched
