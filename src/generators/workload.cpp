#include "generators/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/checked.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"

namespace resched {

ProcCount draw_width(Prng& prng, WidthDistribution width, ProcCount q_cap) {
  RESCHED_REQUIRE(q_cap >= 1);
  switch (width) {
    case WidthDistribution::kUniform:
      return prng.uniform_int(1, q_cap);
    case WidthDistribution::kPowersOfTwo: {
      int max_exp = 0;
      while ((ProcCount{1} << (max_exp + 1)) <= q_cap) ++max_exp;
      return ProcCount{1} << prng.uniform_int(0, max_exp);
    }
    case WidthDistribution::kMostlyNarrow: {
      const ProcCount narrow_cap = std::max<ProcCount>(1, q_cap / 8);
      return prng.chance(0.8) ? prng.uniform_int(1, narrow_cap)
                              : prng.uniform_int(1, q_cap);
    }
  }
  RESCHED_CHECK_MSG(false, "unknown width distribution");
  return 1;
}

Time saturating_ticks(double ticks) {
  if (!(ticks < static_cast<double>(kTimeInfinity))) return kTimeInfinity;
  if (!(ticks > 0.0)) return 0;
  return static_cast<Time>(std::llround(ticks));
}

Instance random_workload(const WorkloadConfig& config, std::uint64_t seed) {
  RESCHED_REQUIRE(config.m >= 1);
  RESCHED_REQUIRE(config.p_min >= 1 && config.p_min <= config.p_max);
  RESCHED_REQUIRE(config.alpha > Rational(0) && config.alpha <= Rational(1));

  // q_cap = floor(alpha * m), at least 1.
  const ProcCount q_cap = std::max<ProcCount>(
      1, (config.alpha * Rational(config.m)).floor());

  Prng prng(seed);
  std::vector<Job> jobs;
  jobs.reserve(config.n);
  double arrival_clock = 0.0;

  for (std::size_t i = 0; i < config.n; ++i) {
    const Time p = config.log_uniform_p
                       ? prng.log_uniform_int(config.p_min, config.p_max)
                       : prng.uniform_int(config.p_min, config.p_max);

    const ProcCount q = draw_width(prng, config.width, q_cap);

    Time release = 0;
    if (config.mean_interarrival > 0.0) {
      // Exponential inter-arrival (Poisson process), rounded to ticks.
      // n * mean_interarrival can grow the clock past what llround can
      // represent; saturating_ticks clamps at kTimeInfinity instead.
      const double u = prng.uniform_real();
      arrival_clock +=
          -config.mean_interarrival * std::log(1.0 - u);
      release = saturating_ticks(arrival_clock);
    }

    jobs.push_back(Job{static_cast<JobId>(i), q, p, release, ""});
  }
  return Instance(config.m, std::move(jobs));
}

StepProfile daily_intensity_profile(Time ticks_per_day) {
  RESCHED_REQUIRE(ticks_per_day >= 24);
  StepProfile curve(kDailyIntensityPercent[0]);
  std::int64_t level = kDailyIntensityPercent[0];
  for (int hour = 1; hour < 24; ++hour) {
    if (kDailyIntensityPercent[hour] == level) continue;
    // hour(t) = t * 24 / tpd (floor) reaches `hour` first at
    // ceil(hour * tpd / 24).
    curve.add(ceil_div(checked_mul(hour, ticks_per_day), 24), kTimeInfinity,
              checked_sub(kDailyIntensityPercent[hour], level));
    level = kDailyIntensityPercent[hour];
  }
  return curve;
}

Instance daily_cycle_workload(const DailyCycleConfig& config,
                              std::uint64_t seed) {
  RESCHED_REQUIRE(config.m >= 1 && config.days >= 1);
  RESCHED_REQUIRE(config.ticks_per_day >= 24);
  RESCHED_REQUIRE(config.p_min >= 1 && config.p_min <= config.p_max);
  RESCHED_REQUIRE(config.alpha > Rational(0) && config.alpha <= Rational(1));

  const StepProfile curve = config.intensity.has_value()
                                ? *config.intensity
                                : daily_intensity_profile(config.ticks_per_day);
  RESCHED_REQUIRE_MSG(curve.min_in(0, config.ticks_per_day) >= 0 &&
                          curve.max_in(0, config.ticks_per_day) > 0,
                      "intensity curve must be non-negative with a positive "
                      "peak over one day");
  const auto peak =
      static_cast<double>(curve.max_in(0, config.ticks_per_day));

  Prng prng(seed);
  const ProcCount q_cap = std::max<ProcCount>(
      1, (config.alpha * Rational(config.m)).floor());

  // Draw arrival instants by rejection against the intensity envelope, then
  // sort: equivalent to an inhomogeneous Poisson process conditioned on n
  // arrivals.
  std::vector<Time> arrivals;
  arrivals.reserve(config.n);
  const Time horizon =
      checked_mul(static_cast<Time>(config.days), config.ticks_per_day);
  while (arrivals.size() < config.n) {
    const Time t = prng.uniform_int(0, checked_sub(horizon, 1));
    const auto intensity =
        static_cast<double>(curve.value_at(t % config.ticks_per_day));
    if (prng.uniform_real() * peak < intensity) arrivals.push_back(t);
  }
  std::sort(arrivals.begin(), arrivals.end());

  std::vector<Job> jobs;
  jobs.reserve(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    const Time p = prng.log_uniform_int(config.p_min, config.p_max);
    const ProcCount q = draw_width(prng, config.width, q_cap);
    jobs.push_back(Job{static_cast<JobId>(i), q, p, arrivals[i], ""});
  }
  return Instance(config.m, std::move(jobs));
}

}  // namespace resched
