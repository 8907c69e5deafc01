// Parametric random rigid-job workloads.
//
// The paper evaluates worst cases analytically; the empirical companions
// (experiments E6/E7/E10) need realistic-ish synthetic workloads. The
// defaults follow the parallel-workload-modelling folklore: log-uniform
// runtimes (heavy tail) and power-of-two widths ("jobs ask for 2^i nodes"),
// both standard observations from the Parallel Workloads Archive literature.
#pragma once

#include <cstdint>
#include <optional>

#include "core/instance.hpp"
#include "core/step_profile.hpp"
#include "util/rational.hpp"

namespace resched {

enum class WidthDistribution {
  kUniform,      // q ~ U[1, q_cap]
  kPowersOfTwo,  // q = 2^i, i ~ U, capped at q_cap
  kMostlyNarrow, // 80% q ~ U[1, max(1, q_cap/8)], 20% q ~ U[1, q_cap]
};

struct WorkloadConfig {
  std::size_t n = 50;
  ProcCount m = 64;
  Time p_min = 1;
  Time p_max = 100;
  bool log_uniform_p = true;  // false: uniform
  WidthDistribution width = WidthDistribution::kPowersOfTwo;
  // Upper bound on q as a fraction of m (alpha of section 4.2): q <= alpha*m.
  Rational alpha{1};
  // Mean inter-arrival time; 0 disables release times (offline instance).
  double mean_interarrival = 0.0;
};

class Prng;

// One job-width draw from `width` capped at q_cap (>= 1). Shared by every
// generator (random_workload, daily_cycle_workload, sim/load_gen) so the
// distributions cannot drift apart; consumes the same Prng stream the
// inlined switch used to, so fixed-seed draws are unchanged.
[[nodiscard]] ProcCount draw_width(Prng& prng, WidthDistribution width,
                                   ProcCount q_cap);

// Rounds a tick count held in a double to Time, saturating: values at or
// above kTimeInfinity (and NaN) clamp to kTimeInfinity, negatives to 0 --
// large accumulated Poisson clocks must clamp, not overflow llround into UB.
[[nodiscard]] Time saturating_ticks(double ticks);

// Deterministic given (config, seed).
[[nodiscard]] Instance random_workload(const WorkloadConfig& config,
                                       std::uint64_t seed);

// Daily-cycle arrival model (Feitelson-style): submission intensity follows
// a diurnal curve -- low at night, peaking mid-morning and mid-afternoon --
// repeated over `days` days of `ticks_per_day` ticks. Jobs are drawn with
// the same duration/width distributions as WorkloadConfig. This is the
// "production trace"-shaped synthetic workload for the online experiments.
struct DailyCycleConfig {
  std::size_t n = 200;
  ProcCount m = 64;
  int days = 3;
  Time ticks_per_day = 1440;  // minutes
  Time p_min = 1;
  Time p_max = 240;
  WidthDistribution width = WidthDistribution::kPowersOfTwo;
  Rational alpha{1};
  // Optional one-day intensity curve in arbitrary non-negative units,
  // queried at t % ticks_per_day and normalized by its maximum. Unset =
  // daily_intensity_profile(ticks_per_day), the built-in diurnal shape.
  // This is how scenario programs drive the generator: compile an
  // intensity program (scenario/scenario.hpp) and install its curve here.
  std::optional<StepProfile> intensity;
};

// Relative hourly intensity (0h..23h) in percent of the mid-morning /
// mid-afternoon peaks: night trough, peaks at 10h and 15h -- the canonical
// bimodal shape of the Parallel Workloads Archive traces. The one table
// behind daily_intensity_profile and the scenario layer's
// daily_intensity_program.
inline constexpr std::int64_t kDailyIntensityPercent[24] = {
    20, 15, 10,  10,  10,  15, 30, 50, 80, 100, 110, 100,
    90, 100, 110, 110, 100, 90, 70, 60, 50, 40,  30,  25};

// The built-in diurnal intensity curve as an integer step function over one
// day: percent of peak-hour pressure (trough 10, peak 110), hour h active
// on [ceil(h * tpd / 24), ceil((h+1) * tpd / 24)) -- exactly the floor
// mapping hour(t) = t * 24 / tpd the rejection sampler uses. Bit-identical
// to compile_scenario(daily_intensity_program(tpd)).curve.
[[nodiscard]] StepProfile daily_intensity_profile(Time ticks_per_day);

[[nodiscard]] Instance daily_cycle_workload(const DailyCycleConfig& config,
                                            std::uint64_t seed);

}  // namespace resched
