// Differential / property fuzz for the scenario subsystem, in the style of
// test_prop_step_profile:
//
//  * compile_scenario vs a naive per-tick interpreter (the compiler places
//    one breakpoint per intermediate level via ceil_div; the reference
//    evaluates the documented floor formula tick by tick -- two independent
//    implementations of the same staircase);
//  * parse(serialize(p)) == p over random valid programs, and canonical
//    serialization is a fixed point;
//  * skyline decomposition: the emitted rectangles stack back into the
//    exact unavailability profile for random in-range programs;
//  * wait_to_cross vs a naive tick scan over a random reference curve.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/scn_format.hpp"
#include "util/prng.hpp"

namespace resched {
namespace {

constexpr std::int64_t kMaxLevel = 12;

// Random program over levels [0, kMaxLevel]: ramps, soaks, jumps.
// `allow_waits` sprinkles in wait_to_cross steps for the reference fuzz.
[[nodiscard]] ScenarioProgram random_program(Prng& prng, bool allow_waits) {
  ScenarioProgram program;
  program.name = "fuzz";
  program.initial = prng.uniform_int(0, kMaxLevel);
  program.repeat = prng.uniform_int(1, 3);
  const int steps = static_cast<int>(prng.uniform_int(1, 6));
  for (int i = 0; i < steps; ++i) {
    const std::int64_t level = prng.uniform_int(0, kMaxLevel);
    const Time duration = prng.uniform_int(1, 40);
    switch (prng.uniform_int(0, allow_waits ? 3 : 2)) {
      case 0: program.steps.push_back(ramp_to(level, duration)); break;
      case 1: program.steps.push_back(soak_at(level, duration)); break;
      case 2: program.steps.push_back(jump_to(level)); break;
      default: program.steps.push_back(wait_to_cross(level)); break;
    }
  }
  return program;
}

// Naive interpreter: the level at tick x, replaying the program and
// evaluating ramps with the documented closed form
//   level(t0 + o) = L + sign * floor(|delta| * o / d)
// one tick at a time (the compiler never iterates over ticks).
[[nodiscard]] std::int64_t naive_value(const ScenarioProgram& program,
                                       Time x) {
  std::int64_t value = program.initial;
  std::int64_t level = program.initial;
  Time t = 0;
  const auto set_at = [&](Time at, std::int64_t v) {
    if (at <= x) value = v;
    level = v;
  };
  for (std::int64_t round = 0; round < program.repeat; ++round) {
    for (const ScenarioStep& step : program.steps) {
      switch (step.kind) {
        case ScenarioStepKind::kJumpTo:
          set_at(t, step.level);
          break;
        case ScenarioStepKind::kSoakAt:
          set_at(t, step.level);
          t += step.duration;
          break;
        case ScenarioStepKind::kRampTo: {
          const std::int64_t start = level;
          const std::int64_t delta = step.level - start;
          const std::int64_t sign = delta >= 0 ? 1 : -1;
          const std::int64_t magnitude = delta >= 0 ? delta : -delta;
          for (Time o = 1; o <= step.duration; ++o)
            set_at(t + o, start + sign * (magnitude * o / step.duration));
          t += step.duration;
          break;
        }
        case ScenarioStepKind::kWaitToCross:
          break;  // not generated for the reference-free fuzz
      }
    }
  }
  return value;
}

TEST(PropScenario, CompiledCurveMatchesTheNaiveInterpreter) {
  Prng prng(20260808);
  for (int round = 0; round < 120; ++round) {
    const ScenarioProgram program = random_program(prng, false);
    const CompiledScenario compiled = compile_scenario(program);
    // Bit-identical recompilation (pure function of the program).
    ASSERT_EQ(compiled, compile_scenario(program));
    for (Time x = 0; x <= compiled.horizon + 3; ++x)
      ASSERT_EQ(compiled.curve.value_at(x), naive_value(program, x))
          << "round " << round << " t=" << x << "\n"
          << serialize_scn(program);
    ASSERT_EQ(compiled.curve.final_value(),
              naive_value(program, compiled.horizon + 3));
  }
}

TEST(PropScenario, SerializeParseIsTheIdentityAndCanonicalIsAFixedPoint) {
  Prng prng(424243);
  for (int round = 0; round < 200; ++round) {
    const ScenarioProgram program = random_program(prng, true);
    const std::string text = serialize_scn(program);
    const ScenarioProgram reparsed = parse_scn(text);
    ASSERT_EQ(reparsed, program) << text;
    ASSERT_EQ(serialize_scn(reparsed), text);
    // And compilation of the reparsed program is bit-identical -- .scn
    // files carry the full semantics (skip wait programs: they need a
    // reference curve).
    const bool has_wait =
        std::any_of(program.steps.begin(), program.steps.end(),
                    [](const ScenarioStep& s) {
                      return s.kind == ScenarioStepKind::kWaitToCross;
                    });
    if (!has_wait) {
      ASSERT_EQ(compile_scenario(reparsed), compile_scenario(program));
    }
  }
}

TEST(PropScenario, DecompositionStacksBackIntoTheExactProfile) {
  Prng prng(97531);
  int nonempty = 0;
  for (int round = 0; round < 150; ++round) {
    const ScenarioProgram program = random_program(prng, false);
    const CompiledScenario compiled = compile_scenario(program);
    const StepProfile u = scenario_unavailability(compiled, kMaxLevel);
    const std::vector<Reservation> rectangles =
        unavailability_to_reservations(u);
    StepProfile rebuilt(0);
    for (const Reservation& r : rectangles)
      rebuilt.add(r.start, r.start + r.p, r.q);
    ASSERT_EQ(rebuilt, u) << serialize_scn(program);
    if (!rectangles.empty()) ++nonempty;
    for (std::size_t i = 0; i < rectangles.size(); ++i) {
      ASSERT_EQ(rectangles[i].id, static_cast<ReservationId>(i));
      ASSERT_GE(rectangles[i].q, 1);
      ASSERT_GE(rectangles[i].p, 1);
      if (i > 0) {
        ASSERT_LE(rectangles[i - 1].start, rectangles[i].start);
      }
    }
  }
  // The fuzz actually exercised the skyline stack, not just empty curves.
  EXPECT_GT(nonempty, 100);
}

TEST(PropScenario, WaitToCrossMatchesANaiveTickScan) {
  Prng prng(86420);
  int compiled_count = 0;
  for (int round = 0; round < 150; ++round) {
    // A random (wait-free) program supplies the reference curve.
    const CompiledScenario reference =
        compile_scenario(random_program(prng, false));
    ScenarioProgram program;
    program.name = "wait";
    program.initial = prng.uniform_int(0, kMaxLevel);
    const std::int64_t threshold = prng.uniform_int(0, kMaxLevel);
    program.steps = {wait_to_cross(threshold),
                     jump_to(prng.uniform_int(0, kMaxLevel))};
    CompiledScenario compiled;
    try {
      compiled = compile_scenario(program, &reference.curve);
    } catch (const std::invalid_argument&) {
      // The reference never crosses: verify the naive scan agrees that no
      // crossing exists before the curve goes flat.
      const bool below = reference.curve.value_at(0) < threshold;
      for (Time t = 0; t <= reference.horizon + 2; ++t)
        ASSERT_EQ(reference.curve.value_at(t) >= threshold, !below)
            << "t=" << t;
      continue;
    }
    ++compiled_count;
    // The naive scan: first tick on the other side of the threshold.
    const bool below = reference.curve.value_at(0) < threshold;
    Time expected = 0;
    while (below ? reference.curve.value_at(expected) < threshold
                 : reference.curve.value_at(expected) >= threshold)
      ++expected;
    ASSERT_EQ(compiled.horizon, expected) << "round " << round;
  }
  EXPECT_GT(compiled_count, 30);
}

}  // namespace
}  // namespace resched
