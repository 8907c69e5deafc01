#include "scenario/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

[[nodiscard]] bool valid_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

[[noreturn]] void bad_program(const std::string& message) {
  throw std::invalid_argument("scenario program: " + message);
}

}  // namespace

std::string to_string(ScenarioStepKind kind) {
  switch (kind) {
    case ScenarioStepKind::kRampTo: return "ramp_to";
    case ScenarioStepKind::kSoakAt: return "soak_at";
    case ScenarioStepKind::kJumpTo: return "jump_to";
    case ScenarioStepKind::kWaitToCross: return "wait_to_cross";
  }
  return "?";
}

ScenarioStep ramp_to(std::int64_t target, Time duration) {
  return ScenarioStep{ScenarioStepKind::kRampTo, target, duration};
}

ScenarioStep soak_at(std::int64_t level, Time duration) {
  return ScenarioStep{ScenarioStepKind::kSoakAt, level, duration};
}

ScenarioStep jump_to(std::int64_t level) {
  return ScenarioStep{ScenarioStepKind::kJumpTo, level, 0};
}

ScenarioStep wait_to_cross(std::int64_t threshold) {
  return ScenarioStep{ScenarioStepKind::kWaitToCross, threshold, 0};
}

void validate_program(const ScenarioProgram& program) {
  if (program.name.empty()) bad_program("name must be non-empty");
  for (const char c : program.name)
    if (!valid_name_char(c))
      bad_program("name '" + program.name +
                  "' has characters outside [A-Za-z0-9_.-]");
  if (program.repeat < 1) bad_program("repeat must be >= 1");
  for (std::size_t i = 0; i < program.steps.size(); ++i) {
    const ScenarioStep& step = program.steps[i];
    const bool timed = step.kind == ScenarioStepKind::kRampTo ||
                       step.kind == ScenarioStepKind::kSoakAt;
    if (timed && step.duration < 1)
      bad_program("step " + std::to_string(i + 1) + " (" +
                  to_string(step.kind) + ") needs a duration >= 1");
    if (!timed && step.duration != 0)
      bad_program("step " + std::to_string(i + 1) + " (" +
                  to_string(step.kind) + ") takes no duration");
  }
}

CompiledScenario compile_scenario(const ScenarioProgram& program,
                                  const StepProfile* reference) {
  validate_program(program);
  CompiledScenario out;
  out.curve = StepProfile(program.initial);
  Time t = 0;
  std::int64_t level = program.initial;

  // Every level change is an add on [at, +inf): the curve is built
  // left-to-right, so each add appends at (or near) the tail and the whole
  // compile stays linear in the number of change points.
  const auto set_level = [&](Time at, std::int64_t value) {
    if (value == level) return;
    out.curve.add(at, kTimeInfinity, checked_sub(value, level));
    level = value;
  };

  for (std::int64_t round = 0; round < program.repeat; ++round) {
    for (const ScenarioStep& step : program.steps) {
      switch (step.kind) {
        case ScenarioStepKind::kJumpTo:
          set_level(t, step.level);
          break;
        case ScenarioStepKind::kSoakAt:
          set_level(t, step.level);
          t = checked_add(t, step.duration);
          break;
        case ScenarioStepKind::kRampTo: {
          const std::int64_t delta = checked_sub(step.level, level);
          if (delta == 0) {
            t = checked_add(t, step.duration);
            break;
          }
          const std::int64_t sign = delta > 0 ? 1 : -1;
          const std::int64_t magnitude = sign > 0 ? delta : checked_neg(delta);
          // level(t + o) = L + sign * floor(magnitude * o / d): step k
          // becomes active at offset ceil(k * d / magnitude), and the final
          // step lands exactly at o = d.
          for (std::int64_t k = 1; k <= magnitude; ++k) {
            const Time offset =
                ceil_div(checked_mul(k, step.duration), magnitude);
            out.curve.add(checked_add(t, offset), kTimeInfinity, sign);
          }
          level = step.level;
          t = checked_add(t, step.duration);
          break;
        }
        case ScenarioStepKind::kWaitToCross: {
          if (reference == nullptr)
            bad_program("wait_to_cross needs a reference curve");
          const std::int64_t at_cursor = reference->value_at(t);
          const Time crossed =
              at_cursor < step.level
                  ? reference->first_at_least(t, step.level)
                  : reference->first_below(t, kTimeInfinity, step.level);
          if (crossed == kTimeInfinity)
            bad_program("wait_to_cross " + std::to_string(step.level) +
                        ": the reference never crosses after t=" +
                        std::to_string(t));
          t = crossed;
          break;
        }
      }
    }
  }
  out.horizon = t;
  return out;
}

StepProfile min_profile(const StepProfile& a, const StepProfile& b) {
  StepProfile out(std::min(a.value_at(0), b.value_at(0)));
  std::int64_t current = std::min(a.value_at(0), b.value_at(0));
  Time t = 0;
  while (true) {
    const Time next = std::min(a.next_change_after(t), b.next_change_after(t));
    if (next == kTimeInfinity) break;
    const std::int64_t value = std::min(a.value_at(next), b.value_at(next));
    if (value != current) {
      out.add(next, kTimeInfinity, checked_sub(value, current));
      current = value;
    }
    t = next;
  }
  return out;
}

StepProfile scenario_unavailability(const CompiledScenario& compiled,
                                    ProcCount m) {
  RESCHED_REQUIRE_MSG(m >= 1, "machine size must be >= 1");
  StepProfile u(0);
  if (compiled.horizon == 0) return u;
  if (compiled.curve.min_in(0, compiled.horizon) < 0 ||
      compiled.curve.max_in(0, compiled.horizon) > m)
    throw std::invalid_argument(
        "scenario availability leaves [0, m] before the horizon");
  for (const StepProfile::Segment& segment :
       compiled.curve.segments_in(0, compiled.horizon)) {
    const std::int64_t withdrawn = checked_sub(m, segment.value);
    if (withdrawn != 0) u.add(segment.start, segment.end, withdrawn);
  }
  return u;
}

Instance scenario_instance(ProcCount m, std::vector<Job> jobs,
                           const CompiledScenario& compiled) {
  return Instance(
      m, std::move(jobs),
      unavailability_to_reservations(scenario_unavailability(compiled, m)));
}

// ---- stock programs ------------------------------------------------------

ScenarioProgram daily_intensity_program(Time ticks_per_day) {
  RESCHED_REQUIRE_MSG(ticks_per_day >= 24,
                      "a day needs at least one tick per hour");
  // The kHourly curve of generators/workload.cpp, in percent. Hour h spans
  // [ceil(h * tpd / 24), ceil((h+1) * tpd / 24)) -- exactly the floor
  // mapping hour(t) = t * 24 / tpd the generator uses.
  static constexpr std::int64_t kHourlyPercent[24] = {
      20, 15, 10,  10,  10,  15, 30, 50, 80, 100, 110, 100,
      90, 100, 110, 110, 100, 90, 70, 60, 50, 40,  30,  25};
  ScenarioProgram program;
  program.name = "daily_intensity";
  program.initial = kHourlyPercent[0];
  for (int hour = 0; hour < 24; ++hour) {
    const Time begin = ceil_div(checked_mul(hour, ticks_per_day), 24);
    const Time end = ceil_div(checked_mul(hour + 1, ticks_per_day), 24);
    if (end > begin)
      program.steps.push_back(
          soak_at(kHourlyPercent[hour], checked_sub(end, begin)));
  }
  return program;
}

ScenarioProgram daily_availability_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 4);
  // Night: whole machine. Working day: interactive users hold a quarter.
  // One day = 1440 ticks, three days.
  const std::int64_t daytime = checked_sub(m, m / 4);
  ScenarioProgram program;
  program.name = "daily_cycle";
  program.initial = m;
  program.repeat = 3;
  program.steps = {
      soak_at(m, 480),         // 00h-08h: night, fully available
      ramp_to(daytime, 120),   // 08h-10h: interactive load ramps in
      soak_at(daytime, 600),   // 10h-20h: working hours
      ramp_to(m, 120),         // 20h-22h: drains out
      soak_at(m, 120),         // 22h-24h: night again
  };
  return program;
}

ScenarioProgram maintenance_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 2);
  ScenarioProgram program;
  program.name = "maintenance";
  program.initial = m;
  program.steps = {
      soak_at(m, 400),
      jump_to(m / 2),      // half the machine goes down for maintenance
      soak_at(m / 2, 200),
      jump_to(m),
      soak_at(m, 400),
  };
  return program;
}

ScenarioProgram brownout_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 2);
  // Compiled against the daily intensity curve: shed half the machine
  // while demand is at its peak (>= 100%), restore once it falls off.
  ScenarioProgram program;
  program.name = "brownout";
  program.initial = m;
  program.steps = {
      wait_to_cross(100),   // demand reaches the peak plateau
      ramp_to(m / 2, 60),   // shed to half machine over an hour
      wait_to_cross(100),   // demand falls back under the plateau
      ramp_to(m, 60),
      soak_at(m, 240),
  };
  return program;
}

ScenarioProgram flash_crowd_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 4);
  // A storm of reservations grabs three quarters of the machine in an
  // instant, four times in a row.
  ScenarioProgram program;
  program.name = "flash_crowd";
  program.initial = m;
  program.repeat = 4;
  program.steps = {
      soak_at(m, 200),
      jump_to(m / 4),
      soak_at(m / 4, 50),
      jump_to(m),
  };
  return program;
}

ScenarioProgram ramp_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 4);
  ScenarioProgram program;
  program.name = "ramp";
  program.initial = m;
  program.steps = {
      ramp_to(m / 4, 300),
      soak_at(m / 4, 100),
      ramp_to(m, 300),
      soak_at(m, 100),
  };
  return program;
}

ScenarioProgram soak_program(ProcCount m) {
  RESCHED_REQUIRE(m >= 1);
  ScenarioProgram program;
  program.name = "soak";
  program.initial = m;
  program.steps = {soak_at(m, 1000)};
  return program;
}

}  // namespace resched
