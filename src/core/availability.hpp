// Availability analysis of an instance (paper sections 3.1 and 4).
//
// Reservations induce the unavailability step function
//   U(t) = sum_{j active at t} q_j
// and the availability m(t) = m - U(t). This module builds both profiles and
// classifies instances:
//  * feasibility (U <= m; enforced at Instance construction, re-checkable),
//  * non-increasing reservations (section 4.1's restriction: U non-increasing),
//  * alpha-restriction (section 4.2): U(t) <= (1-alpha) m and q_i <= alpha m.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/step_profile.hpp"
#include "util/rational.hpp"

namespace resched {

// U(t): reserved processors over time.
[[nodiscard]] StepProfile unavailability_profile(const Instance& instance);

// m(t) = m - U(t): processors the scheduler may use over time.
[[nodiscard]] StepProfile availability_profile(const Instance& instance);

// Integral of m(t) over [0, horizon), summed straight from the reservation
// windows: m * horizon - sum_r q_r * |[start_r, end_r) intersect [0, horizon)|.
// No profile is built, so the schedule checks (Schedule::utilization and
// idle_area) share no code with the StepProfile the schedulers plan on.
// Requires horizon >= 0; throws std::overflow_error when an intermediate
// int64 product or sum overflows.
[[nodiscard]] std::int64_t available_area(const Instance& instance,
                                          Time horizon);

// Decomposes a non-negative staircase with final value 0 into reservation
// rectangles whose stacked sum reproduces it exactly, via a skyline stack:
// a rise opens a block, a fall closes the most recent blocks first
// (splitting the top block when the fall is partial). Rectangles are sorted
// by (start, p, q) and given dense ids, named block<i>. On a non-increasing
// profile this is Proposition 1's staircase: drop j of the staircase becomes
// the block [0, s_{j+1}) x (U_j - U_{j+1}), in ascending end. Throws
// std::invalid_argument when the profile dips negative or never returns
// to 0.
[[nodiscard]] std::vector<Reservation> unavailability_to_reservations(
    const StepProfile& unavailability);

// Section 4.1 restriction: U non-increasing (equivalently m(t) non-
// decreasing). Instances with no reservations qualify trivially.
[[nodiscard]] bool has_non_increasing_unavailability(const Instance& instance);

// min_t m(t): the guaranteed-available processor count.
[[nodiscard]] ProcCount min_availability(const Instance& instance);

// m(T) where T is the given time -- used by Proposition 1's refined bound
// 2 - 1/m(C*).
[[nodiscard]] ProcCount availability_at(const Instance& instance, Time t);

// Largest fraction of the machine ever reserved: max_t U(t) / m.
[[nodiscard]] Rational max_reserved_fraction(const Instance& instance);

// Largest fraction of the machine any single job needs: max_i q_i / m.
[[nodiscard]] Rational max_job_fraction(const Instance& instance);

// True iff the instance satisfies the alpha-RESASCHEDULING constraints for
// this alpha: U(t) <= (1-alpha) m for all t, and q_i <= alpha m for all i.
// alpha must lie in (0, 1].
[[nodiscard]] bool is_alpha_restricted(const Instance& instance,
                                       const Rational& alpha);

// The largest alpha for which is_alpha_restricted holds, i.e.
// 1 - max_reserved_fraction, provided every job fits under it; nullopt when
// the instance is not alpha-restricted for any alpha (some job is wider than
// the processors left free at the peak reservation). Larger alpha gives the
// stronger 2/alpha guarantee, so this is the alpha to report.
[[nodiscard]] std::optional<Rational> best_alpha(const Instance& instance);

}  // namespace resched
