#include "core/availability.hpp"

#include <algorithm>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

StepProfile unavailability_profile(const Instance& instance) {
  StepProfile profile(0);
  for (const Reservation& resa : instance.reservations())
    profile.add(resa.start, resa.end(), resa.q);
  return profile;
}

StepProfile availability_profile(const Instance& instance) {
  StepProfile profile(instance.m());
  for (const Reservation& resa : instance.reservations())
    profile.add(resa.start, resa.end(), -resa.q);
  return profile;
}

std::int64_t available_area(const Instance& instance, Time horizon) {
  RESCHED_REQUIRE(horizon >= 0);
  std::int64_t area = checked_mul(instance.m(), horizon);
  for (const Reservation& resa : instance.reservations()) {
    const Time to = std::min(resa.end(), horizon);
    if (to <= resa.start) continue;
    area = checked_sub(area, checked_mul(resa.q, checked_sub(to, resa.start)));
  }
  return area;
}

bool has_non_increasing_unavailability(const Instance& instance) {
  return unavailability_profile(instance).is_non_increasing();
}

ProcCount min_availability(const Instance& instance) {
  return availability_profile(instance).min_value();
}

ProcCount availability_at(const Instance& instance, Time t) {
  return availability_profile(instance).value_at(t);
}

Rational max_reserved_fraction(const Instance& instance) {
  return Rational(unavailability_profile(instance).max_value(), instance.m());
}

Rational max_job_fraction(const Instance& instance) {
  return Rational(instance.q_max(), instance.m());
}

bool is_alpha_restricted(const Instance& instance, const Rational& alpha) {
  RESCHED_REQUIRE_MSG(alpha > Rational(0) && alpha <= Rational(1),
                      "alpha must lie in (0, 1]");
  // U(t) <= (1 - alpha) m  <=>  max_reserved_fraction <= 1 - alpha.
  if (max_reserved_fraction(instance) > Rational(1) - alpha) return false;
  // q_i <= alpha m  <=>  max_job_fraction <= alpha.
  return max_job_fraction(instance) <= alpha;
}

std::optional<Rational> best_alpha(const Instance& instance) {
  const Rational alpha = Rational(1) - max_reserved_fraction(instance);
  if (alpha <= Rational(0)) return std::nullopt;  // fully reserved at some t
  if (max_job_fraction(instance) > alpha) return std::nullopt;
  return alpha;
}

}  // namespace resched
