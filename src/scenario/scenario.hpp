// Scenario programs: a typed step DSL for availability / intensity curves.
//
// A ScenarioProgram is a small imperative program over a single integer
// level: ramp to a target over a duration, soak at a level, jump
// instantaneously, or wait for a *reference* curve to cross a threshold
// (after osPID's ospProfile step encoding -- STEP_RAMP_TO_SETPOINT /
// STEP_SOAK_AT_VALUE / STEP_JUMP_TO_SETPOINT / STEP_WAIT_TO_CROSS). It
// compiles deterministically into the repo's universal StepProfile
// representation, from which two consumers feed:
//
//  * availability programs: the compiled curve is m(t), the processors the
//    scheduler may use; scenario_instance() turns m - m(t) into the
//    equivalent reservation set (the paper's availability-to-reservations
//    reduction, generalized to arbitrary staircases), and
//    sim/service harnesses apply the same rectangles as availability
//    windows (scenario/matrix.hpp);
//  * intensity programs: the compiled curve drives generators (the daily
//    arrival cycle in generators/workload.*).
//
// Programs live in committed .scn text files (scenario/scn_format.hpp,
// round-trip exact), so experiment scenarios are reviewable artifacts
// instead of code-shaped knobs. Compilation is a pure function of
// (program, reference): same program, bit-identical StepProfile, pinned by
// the differential fuzz in tests/test_prop_scenario.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/availability.hpp"
#include "core/instance.hpp"
#include "core/step_profile.hpp"

namespace resched {

enum class ScenarioStepKind {
  kRampTo,       // linear (discretized) move to `level` over `duration`
  kSoakAt,       // hold `level` for `duration` ticks
  kJumpTo,       // set `level` instantaneously (no time advance)
  kWaitToCross,  // advance time until the reference curve crosses `level`
};

[[nodiscard]] std::string to_string(ScenarioStepKind kind);

struct ScenarioStep {
  ScenarioStepKind kind = ScenarioStepKind::kJumpTo;
  // Target level (ramp/jump/soak) or threshold (wait_to_cross).
  std::int64_t level = 0;
  // Ticks the step spans; meaningful for kRampTo / kSoakAt only (>= 1).
  Time duration = 0;

  friend bool operator==(const ScenarioStep&, const ScenarioStep&) = default;
};

// Step factories, so program literals read like the .scn text.
[[nodiscard]] ScenarioStep ramp_to(std::int64_t target, Time duration);
[[nodiscard]] ScenarioStep soak_at(std::int64_t level, Time duration);
[[nodiscard]] ScenarioStep jump_to(std::int64_t level);
[[nodiscard]] ScenarioStep wait_to_cross(std::int64_t threshold);

struct ScenarioProgram {
  // Identifier: [A-Za-z0-9_.-]+, non-empty (it is a .scn token).
  std::string name;
  // Level before the first step.
  std::int64_t initial = 0;
  // The step list runs this many times back to back (>= 1).
  std::int64_t repeat = 1;
  std::vector<ScenarioStep> steps;

  friend bool operator==(const ScenarioProgram&,
                         const ScenarioProgram&) = default;
};

// Structural validation (name token, repeat >= 1, per-step duration rules);
// throws std::invalid_argument naming the offending step. compile_scenario
// and serialize_scn call this first.
void validate_program(const ScenarioProgram& program);

struct CompiledScenario {
  // The level as a function of time; constant (the final level) after
  // `horizon`.
  StepProfile curve{0};
  // Where the program ended: the sum of all step durations and waits.
  Time horizon = 0;

  friend bool operator==(const CompiledScenario&,
                         const CompiledScenario&) = default;
};

// Compiles the program into its level curve. Deterministic: the result is a
// pure function of (program, *reference). A ramp of |delta| levels over d
// ticks is the exact integer staircase
//   level(t0 + o) = L + sign(delta) * floor(|delta| * o / d),   0 <= o <= d,
// so it starts at L, lands exactly on the target at t0 + d, and every
// intermediate level holds for floor-or-ceil(d / |delta|) ticks.
// kWaitToCross advances the cursor to the first instant the reference curve
// reaches the other side of the threshold (>= threshold when currently
// below it, < threshold when currently at-or-above), which lets an
// availability program synchronize with a load curve (brownouts). Throws
// std::invalid_argument when a wait step has no reference (nullptr) or the
// reference never crosses.
[[nodiscard]] CompiledScenario compile_scenario(
    const ScenarioProgram& program, const StepProfile* reference = nullptr);

// Pointwise minimum of two step functions (compose a maintenance window
// over a daily availability base: the effective machine is the min).
[[nodiscard]] StepProfile min_profile(const StepProfile& a,
                                      const StepProfile& b);

// U(t) = m - curve(t) on [0, horizon), 0 afterwards (the program is over;
// the machine is whole again, so every job remains schedulable). Requires
// the curve to stay within [0, m] before the horizon; throws
// std::invalid_argument otherwise.
[[nodiscard]] StepProfile scenario_unavailability(
    const CompiledScenario& compiled, ProcCount m);

// The compiled availability program as a ready instance: jobs plus the
// reservation set equivalent to the program's unavailability.
[[nodiscard]] Instance scenario_instance(ProcCount m, std::vector<Job> jobs,
                                         const CompiledScenario& compiled);

// ---- stock programs ------------------------------------------------------
// The committed tests/data/*.scn fixtures serialize exactly these (pinned
// by tests/test_scenario.cpp), so the scenario matrix and the text files
// can never drift apart.

// The diurnal *intensity* curve of generators/workload.cpp's daily cycle,
// in percent (trough 10, peak 110), one day of `ticks_per_day` ticks.
// compile_scenario(...).curve is bit-identical to
// daily_intensity_profile(ticks_per_day).
[[nodiscard]] ScenarioProgram daily_intensity_program(Time ticks_per_day);

// Availability programs over an m-processor machine (horizon in ticks):
// three days of interactive daytime pressure (lose a quarter of the
// machine over working hours),
[[nodiscard]] ScenarioProgram daily_availability_program(ProcCount m);
// a half-machine maintenance window mid-run,
[[nodiscard]] ScenarioProgram maintenance_program(ProcCount m);
// a brownout: shed half the machine while the (reference) intensity curve
// is at its peak -- compile with the daily intensity curve as reference,
[[nodiscard]] ScenarioProgram brownout_program(ProcCount m);
// a flash-crowd reservation storm: four bursts each grabbing 3/4 of the
// machine at an instant,
[[nodiscard]] ScenarioProgram flash_crowd_program(ProcCount m);
// a slow drain to a quarter of the machine and back,
[[nodiscard]] ScenarioProgram ramp_program(ProcCount m);
// and the control: the whole machine, no reservations at all.
[[nodiscard]] ScenarioProgram soak_program(ProcCount m);

}  // namespace resched
