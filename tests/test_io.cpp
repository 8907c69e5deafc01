#include "core/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace resched {
namespace {

Instance sample_instance() {
  return Instance(8,
                  {Job{0, 2, 10, 0, "alpha"}, Job{1, 4, 5, 3, "two words"},
                   Job{2, 1, 7, 0, ""}},
                  {Reservation{0, 3, 6, 2, "maint window"}});
}

TEST(NativeFormat, RoundTrip) {
  const Instance original = sample_instance();
  std::stringstream stream;
  save_instance(original, stream);
  const Instance loaded = load_instance(stream);
  EXPECT_EQ(loaded, original);
}

TEST(NativeFormat, PreservesQuotedNames) {
  const Instance original = sample_instance();
  std::stringstream stream;
  save_instance(original, stream);
  const Instance loaded = load_instance(stream);
  EXPECT_EQ(loaded.job(1).name, "two words");
  EXPECT_EQ(loaded.reservation(0).name, "maint window");
}

TEST(NativeFormat, SkipsCommentsAndBlanks) {
  std::istringstream is(
      "# a comment\n\nm 4\n# another\njob 0 2 3 0\n");
  const Instance instance = load_instance(is);
  EXPECT_EQ(instance.m(), 4);
  EXPECT_EQ(instance.n(), 1u);
}

TEST(NativeFormat, MissingMachineCountThrows) {
  std::istringstream is("job 0 1 1 0\n");
  EXPECT_THROW(load_instance(is), std::invalid_argument);
}

TEST(NativeFormat, UnknownRecordThrows) {
  std::istringstream is("m 2\nwat 1 2 3 4\n");
  EXPECT_THROW(load_instance(is), std::invalid_argument);
}

TEST(NativeFormat, MalformedIntegerThrows) {
  std::istringstream is("m 2\njob 0 x 1 0\n");
  EXPECT_THROW(load_instance(is), std::invalid_argument);
}

TEST(ScheduleCsv, RoundTrip) {
  const Instance instance = sample_instance();
  Schedule schedule(instance.n());
  schedule.set_start(0, 0);
  schedule.set_start(1, 10);
  schedule.set_start(2, 3);
  std::stringstream stream;
  save_schedule_csv(instance, schedule, stream);
  const Schedule loaded = load_schedule_csv(instance, stream);
  EXPECT_EQ(loaded, schedule);
}

TEST(ScheduleCsv, HeaderEnforced) {
  const Instance instance = sample_instance();
  std::istringstream is("not,a,header\n0,0,10\n");
  EXPECT_THROW(load_schedule_csv(instance, is), std::invalid_argument);
}

TEST(ScheduleCsv, EndColumnMatchesStartPlusDuration) {
  const Instance instance = sample_instance();
  Schedule schedule(instance.n());
  schedule.set_start(0, 2);
  schedule.set_start(1, 0);
  schedule.set_start(2, 0);
  std::stringstream stream;
  save_schedule_csv(instance, schedule, stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("0,2,12"), std::string::npos);  // p = 10
}

}  // namespace
}  // namespace resched
