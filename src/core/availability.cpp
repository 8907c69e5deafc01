#include "core/availability.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "util/checked.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

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

std::vector<Reservation> unavailability_to_reservations(
    const StepProfile& unavailability) {
  // Skyline stack: a rise opens a block at its height delta, a fall closes
  // the most recent blocks first (LIFO nesting keeps every emitted
  // rectangle maximal in its own layer). The sum of the emitted rectangles
  // reproduces the staircase exactly -- pinned by the round-trip fuzz.
  struct Block {
    Time start;
    std::int64_t height;
  };
  std::vector<Block> open;
  std::vector<Reservation> out;
  std::int64_t previous = 0;
  for (const StepProfile::Segment& segment : unavailability.segments()) {
    if (segment.value < 0)
      throw std::invalid_argument(
          "unavailability_to_reservations: profile dips below 0 at t=" +
          std::to_string(segment.start));
    if (segment.value > previous) {
      open.push_back(
          Block{segment.start, checked_sub(segment.value, previous)});
    } else if (segment.value < previous) {
      std::int64_t fall = checked_sub(previous, segment.value);
      while (fall > 0) {
        Block& top = open.back();
        const std::int64_t take = std::min(top.height, fall);
        out.push_back(Reservation{0, static_cast<ProcCount>(take),
                                  checked_sub(segment.start, top.start),
                                  top.start, ""});
        top.height = checked_sub(top.height, take);
        if (top.height == 0) open.pop_back();
        fall = checked_sub(fall, take);
      }
    }
    previous = segment.value;
  }
  if (previous != 0 || !open.empty())
    throw std::invalid_argument(
        "unavailability_to_reservations: profile never returns to 0 "
        "(reservations must be finite)");
  std::sort(out.begin(), out.end(),
            [](const Reservation& a, const Reservation& b) {
              return std::tie(a.start, a.p, a.q) < std::tie(b.start, b.p, b.q);
            });
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].id = static_cast<ReservationId>(i);
    out[i].name = tag("block", static_cast<std::int64_t>(i));
  }
  return out;
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
