#include "core/machine_assignment.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algorithms/conservative_bf.hpp"
#include "algorithms/lsrc.hpp"
#include "generators/reservations.hpp"
#include "generators/workload.hpp"

namespace resched {
namespace {

TEST(MachineAssignment, SimpleTwoJobs) {
  const Instance instance(3, {Job{0, 2, 4, 0, ""}, Job{1, 1, 4, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);
  const MachineAssignment assignment = assign_machines(instance, schedule);
  EXPECT_TRUE(validate_assignment(instance, sweep_events(instance, schedule),
                                  assignment)
                  .ok);
  EXPECT_EQ(assignment.job_machines[0].size(), 2u);
  EXPECT_EQ(assignment.job_machines[1].size(), 1u);
}

TEST(MachineAssignment, ReservationsGetMachines) {
  const Instance instance(4, {Job{0, 2, 3, 0, ""}},
                          {Reservation{0, 2, 5, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  const MachineAssignment assignment = assign_machines(instance, schedule);
  EXPECT_TRUE(validate_assignment(instance, sweep_events(instance, schedule),
                                  assignment)
                  .ok);
  EXPECT_EQ(assignment.reservation_machines[0].size(), 2u);
  // Reservations acquire first at equal times: they get the lowest ids.
  EXPECT_EQ(assignment.reservation_machines[0][0], 0);
  EXPECT_EQ(assignment.reservation_machines[0][1], 1);
  EXPECT_EQ(assignment.job_machines[0][0], 2);
}

TEST(MachineAssignment, MachinesReusedAfterCompletion) {
  // Sequential full-width jobs share the same machines.
  const Instance instance(2, {Job{0, 2, 1, 0, ""}, Job{1, 2, 1, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 1);
  const MachineAssignment assignment = assign_machines(instance, schedule);
  EXPECT_TRUE(validate_assignment(instance, sweep_events(instance, schedule),
                                  assignment)
                  .ok);
  EXPECT_EQ(assignment.job_machines[0], assignment.job_machines[1]);
}

TEST(MachineAssignment, RejectsInfeasibleSchedule) {
  const Instance instance(2, {Job{0, 2, 2, 0, ""}, Job{1, 2, 2, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);  // overload
  EXPECT_THROW(assign_machines(instance, schedule), std::invalid_argument);
}

TEST(MachineAssignment, ValidatorCatchesDoubleBooking) {
  const Instance instance(3, {Job{0, 1, 4, 0, ""}, Job{1, 1, 4, 0, ""}});
  Schedule schedule(2);
  schedule.set_start(0, 0);
  schedule.set_start(1, 0);
  const std::vector<LoadEvent> events = sweep_events(instance, schedule);
  MachineAssignment assignment = assign_machines(instance, schedule);
  // Corrupt: both jobs on machine 0.
  assignment.job_machines[1] = assignment.job_machines[0];
  const ValidationResult result =
      validate_assignment(instance, events, assignment);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("double-booked"), std::string::npos);

  // One occupant listing a machine twice books it twice.
  const Instance wide(3, {Job{0, 2, 4, 0, ""}});
  Schedule wide_schedule(1);
  wide_schedule.set_start(0, 0);
  MachineAssignment twice = assign_machines(wide, wide_schedule);
  twice.job_machines[0] = {1, 1};
  EXPECT_FALSE(
      validate_assignment(wide, sweep_events(wide, wide_schedule), twice).ok);

  // A reservation handing its machine to a job at the same tick is not a
  // double booking: the end frees the machine before the start takes it.
  const Instance handoff(1, {Job{0, 1, 2, 0, ""}},
                         {Reservation{0, 1, 3, 0, ""}});
  Schedule handoff_schedule(1);
  handoff_schedule.set_start(0, 3);
  const MachineAssignment shared = assign_machines(handoff, handoff_schedule);
  EXPECT_EQ(shared.reservation_machines[0], shared.job_machines[0]);
  EXPECT_TRUE(validate_assignment(
                  handoff, sweep_events(handoff, handoff_schedule), shared)
                  .ok);
}

TEST(MachineAssignment, ValidatorCatchesWrongCount) {
  const Instance instance(3, {Job{0, 2, 2, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  MachineAssignment assignment = assign_machines(instance, schedule);
  assignment.job_machines[0].pop_back();
  EXPECT_FALSE(validate_assignment(instance, sweep_events(instance, schedule),
                                   assignment)
                   .ok);
}

TEST(MachineAssignment, ValidatorCatchesOutOfRange) {
  const Instance instance(3, {Job{0, 1, 2, 0, ""}});
  Schedule schedule(1);
  schedule.set_start(0, 0);
  MachineAssignment assignment = assign_machines(instance, schedule);
  assignment.job_machines[0][0] = 99;
  EXPECT_FALSE(validate_assignment(instance, sweep_events(instance, schedule),
                                   assignment)
                   .ok);
}

// Property: every LSRC schedule on random instances (with reservations)
// admits a valid concrete machine assignment -- the constructive proof that
// counting feasibility suffices (non-contiguity claim of section 2.1).
class AssignmentProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignmentProperty, LsrcSchedulesAlwaysAssignable) {
  WorkloadConfig config;
  config.n = 40;
  config.m = 16;
  config.alpha = Rational(1, 2);
  const Instance base = random_workload(config, GetParam());
  AlphaReservationConfig resa;
  resa.alpha = Rational(1, 2);
  resa.count = 4;
  const Instance instance =
      with_alpha_restricted_reservations(base, resa, GetParam() + 1);

  const Schedule schedule = LsrcScheduler().schedule(instance).value();
  ASSERT_TRUE(schedule.validate(instance).ok);
  const MachineAssignment assignment = assign_machines(instance, schedule);
  EXPECT_TRUE(validate_assignment(instance, sweep_events(instance, schedule),
                                  assignment)
                  .ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentProperty,
                         ::testing::Values(100, 101, 102, 103, 104));

// FNV-1a over the bytes of x.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte)
    h = (h ^ ((x >> (8 * byte)) & 0xffu)) * 1099511628211ull;
  return h;
}

// Golden: every machine list of LSRC and conservative schedules on seeded
// alpha-restricted instances. Pins assign_machines' event order (ends
// before starts, reservations before jobs, lower id first) and its
// smallest-free-index choice; any change here changes the Gantt charts and
// the cluster traces.
TEST(MachineAssignment, GoldenHashOverSeededSchedules) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    WorkloadConfig config;
    config.n = 60;
    config.m = 16;
    config.alpha = Rational(1, 2);
    config.mean_interarrival = seed % 2 == 0 ? 4.0 : 0.0;
    const Instance base = random_workload(config, seed);
    AlphaReservationConfig resa;
    resa.alpha = Rational(1, 2);
    resa.count = 8;
    const Instance instance =
        with_alpha_restricted_reservations(base, resa, seed + 1);
    for (const bool conservative : {false, true}) {
      const Schedule schedule =
          conservative
              ? ConservativeBackfillScheduler().schedule(instance).value()
              : LsrcScheduler().schedule(instance).value();
      const MachineAssignment assignment = assign_machines(instance, schedule);
      ASSERT_TRUE(validate_assignment(instance,
                                      sweep_events(instance, schedule),
                                      assignment)
                      .ok);
      for (const auto* lists :
           {&assignment.job_machines, &assignment.reservation_machines})
        for (const std::vector<MachineIndex>& machines : *lists) {
          h = fnv1a(h, machines.size());
          for (const MachineIndex machine : machines)
            h = fnv1a(h, static_cast<std::uint64_t>(machine));
        }
    }
  }
  EXPECT_EQ(h, 15823853870344323809ull);
}

}  // namespace
}  // namespace resched
