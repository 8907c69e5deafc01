#include "generators/adversarial.hpp"

#include <algorithm>

#include "util/checked.hpp"
#include "util/require.hpp"
#include "util/strings.hpp"

namespace resched {

Prop2Family prop2_instance(std::int64_t k) {
  RESCHED_REQUIRE_MSG(k >= 2, "Prop. 2 family needs k >= 2");
  Prop2Family family;
  family.k = k;
  const std::int64_t km1 = checked_sub(k, 1);
  const ProcCount m = checked_mul(checked_mul(k, k), km1);  // k^2 (k-1)

  // All times scaled by k relative to the paper's text (which uses p = 1/k
  // and p = 1): first set p = 1, second set p = k, reservation starts at k.
  std::vector<Job> jobs;
  // Set 1: k narrow-short jobs, q = (k-1)^2, p = 1 (ids 0..k-1).
  for (std::int64_t i = 0; i < k; ++i)
    jobs.push_back(Job{static_cast<JobId>(i), checked_mul(km1, km1), 1, 0,
                       tag("short", i)});
  // Set 2: k-1 wide-long jobs, q = k(k-1)+1, p = k (ids k..2k-2).
  for (std::int64_t i = 0; i < km1; ++i)
    jobs.push_back(Job{static_cast<JobId>(checked_add(k, i)),
                       checked_add(checked_mul(k, km1), 1), k, 0,
                       tag("wide", i)});

  std::vector<Reservation> reservations;
  // One reservation of (1 - alpha) m = k(k-1)(k-2) processors starting at
  // t = k (the scaled t = 1). Its duration only needs to cover the LSRC
  // horizon; we follow the paper's generous 2/alpha = k time units, scaled.
  const ProcCount resa_q = checked_mul(checked_mul(k, km1), checked_sub(k, 2));
  if (resa_q > 0) {
    reservations.push_back(
        Reservation{0, resa_q, checked_mul(2, checked_mul(k, k)), k, "resa"});
  }
  // Submission order is the bad list order: set 1 first, then set 2.
  family.instance = Instance(m, std::move(jobs), std::move(reservations));

  // Constructive optimum (paper: C* = 1, scaled to k): the k-1 wide jobs all
  // start at 0; the k short jobs chain on one block of (k-1)^2 processors.
  Schedule optimal(family.instance.n());
  for (std::int64_t i = 0; i < k; ++i)
    optimal.set_start(static_cast<JobId>(i), i);  // shorts at 0, 1, ..., k-1
  for (std::int64_t i = 0; i < km1; ++i)
    optimal.set_start(static_cast<JobId>(checked_add(k, i)), 0);
  family.optimal_schedule = std::move(optimal);
  family.optimal_makespan = k;
  // 1/k + (k - 1), scaled by k.
  family.lsrc_makespan = checked_add(1, checked_mul(k, km1));
  return family;
}

GrahamTightFamily graham_tight_instance(ProcCount m) {
  RESCHED_REQUIRE_MSG(m >= 2, "Graham tight family needs m >= 2");
  GrahamTightFamily family;
  std::vector<Job> jobs;
  const std::int64_t shorts = checked_mul(m, checked_sub(m, 1));
  for (std::int64_t i = 0; i < shorts; ++i)
    jobs.push_back(Job{static_cast<JobId>(i), 1, 1, 0, ""});
  jobs.push_back(Job{static_cast<JobId>(shorts), 1, m, 0, "long"});
  family.instance = Instance(m, std::move(jobs));
  family.optimal_makespan = m;
  family.lsrc_makespan = checked_sub(checked_mul(2, m), 1);
  return family;
}

FcfsBadFamily fcfs_bad_instance(ProcCount m) {
  RESCHED_REQUIRE_MSG(m >= 2, "FCFS bad family needs m >= 2");
  FcfsBadFamily family;
  const Time long_p = checked_mul(m, m);
  std::vector<Job> jobs;
  for (ProcCount i = 0; i < m; ++i) {
    const std::int64_t even = checked_mul(2, i);
    jobs.push_back(Job{static_cast<JobId>(even), 1, long_p, 0,
                       tag("L", i)});
    jobs.push_back(Job{static_cast<JobId>(checked_add(even, 1)), m, 1, 0,
                       tag("W", i)});
  }
  family.instance = Instance(m, std::move(jobs));
  family.optimal_makespan = checked_add(long_p, m);       // m^2 + m
  family.fcfs_makespan = checked_mul(m, checked_add(long_p, 1));  // m (m^2 + 1)
  return family;
}

Instance cbf_trap_instance(std::int64_t rounds, ProcCount m,
                           Time narrow_duration) {
  RESCHED_REQUIRE(rounds >= 1 && m >= 2 && narrow_duration >= 2);
  std::vector<Job> jobs;
  for (std::int64_t i = 0; i < rounds; ++i) {
    const Time even = checked_mul(2, i);
    const Time odd = checked_add(even, 1);
    jobs.push_back(Job{static_cast<JobId>(even), 1, narrow_duration, even,
                       tag("F", i)});
    jobs.push_back(Job{static_cast<JobId>(odd), m, 1, odd,
                       tag("G", i)});
  }
  return Instance(m, std::move(jobs));
}

Theorem1Reduction theorem1_reduction(const ThreePartitionInstance& partition,
                                     std::int64_t rho) {
  RESCHED_REQUIRE_MSG(partition.well_formed(),
                      "malformed 3-PARTITION instance");
  RESCHED_REQUIRE(rho >= 1);
  Theorem1Reduction reduction;
  reduction.k = static_cast<std::int64_t>(partition.groups());
  reduction.B = partition.target;
  reduction.rho = rho;
  const std::int64_t k = reduction.k;
  const std::int64_t B = reduction.B;
  const Time bp1 = checked_add(B, 1);

  std::vector<Job> jobs;
  for (std::size_t i = 0; i < partition.items.size(); ++i)
    jobs.push_back(Job{static_cast<JobId>(i), 1, partition.items[i], 0, ""});

  // Reservations at r_j = j (B+1) - 1 for j = 1..k, length 1 except the
  // last, whose length is rho k (B+1) + 1 so that it ends at
  // (rho + 1) k (B + 1) (paper Fig. 1).
  std::vector<Reservation> reservations;
  for (std::int64_t j = 1; j <= k; ++j) {
    const Time start = checked_sub(checked_mul(j, bp1), 1);
    const Time length =
        (j < k) ? 1
                : checked_add(checked_mul(rho, checked_mul(k, bp1)), 1);
    reservations.push_back(
        Reservation{static_cast<ReservationId>(checked_sub(j, 1)), 1,
                                       length, start, ""});
  }
  reduction.instance = Instance(1, std::move(jobs), std::move(reservations));
  reduction.opt_if_solvable = checked_sub(checked_mul(k, bp1), 1);
  reduction.gap_threshold = checked_mul(rho, checked_mul(k, bp1));
  return reduction;
}

Schedule schedule_from_partition(
    const Theorem1Reduction& reduction,
    const std::vector<std::vector<std::size_t>>& groups) {
  const Instance& instance = reduction.instance;
  Schedule schedule(instance.n());
  RESCHED_REQUIRE_MSG(groups.size() == static_cast<std::size_t>(reduction.k),
                      "partition has the wrong number of groups");
  const Time bp1 = checked_add(reduction.B, 1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    // Gap g spans [g (B+1), g (B+1) + B): B free time units.
    const Time gap_begin = checked_mul(static_cast<Time>(g), bp1);
    Time cursor = gap_begin;
    for (const std::size_t item : groups[g]) {
      const Job& job = instance.job(static_cast<JobId>(item));
      schedule.set_start(job.id, cursor);
      cursor = checked_add(cursor, job.p);
    }
    RESCHED_CHECK_MSG(cursor <= checked_add(gap_begin, reduction.B),
                      "group overflows its gap: not a valid partition");
  }
  return schedule;
}

std::optional<std::vector<std::vector<std::size_t>>> partition_from_schedule(
    const Theorem1Reduction& reduction, const ThreePartitionInstance& partition,
    const Schedule& schedule) {
  const Instance& instance = reduction.instance;
  if (!schedule.validate(instance).ok) return std::nullopt;
  if (schedule.makespan(instance) >= reduction.gap_threshold)
    return std::nullopt;

  // Every job must lie inside one inter-reservation gap; bucket by gap index.
  const Time bp1 = checked_add(reduction.B, 1);
  std::vector<std::vector<std::size_t>> groups(
      static_cast<std::size_t>(reduction.k));
  for (const Job& job : instance.jobs()) {
    const Time start = schedule.start(job.id);
    const std::int64_t gap = start / bp1;
    if (gap < 0 || gap >= reduction.k) return std::nullopt;
    // Must fit inside the free part of the gap.
    const Time gap_begin = checked_mul(gap, bp1);
    if (start < gap_begin ||
        checked_add(start, job.p) > checked_add(gap_begin, reduction.B))
      return std::nullopt;
    groups[static_cast<std::size_t>(gap)].push_back(
        static_cast<std::size_t>(job.id));
  }
  if (!is_valid_three_partition(partition, groups)) return std::nullopt;
  return groups;
}

ThreePartitionInstance random_strict_yes_instance(std::size_t k,
                                                  std::int64_t B, Prng& prng) {
  RESCHED_REQUIRE_MSG(B >= 13, "strict items need B >= 13");
  ThreePartitionInstance instance;
  instance.target = B;
  const std::int64_t lo = checked_add(B / 4, 1);    // smallest integer > B/4
  const std::int64_t hi = checked_sub(B, 1) / 2;      // largest integer < B/2
  RESCHED_CHECK(lo <= hi);
  for (std::size_t g = 0; g < k; ++g) {
    // Rejection-sample a 3-composition with every part in [lo, hi].
    while (true) {
      const std::int64_t a = prng.uniform_int(lo, hi);
      const std::int64_t b = prng.uniform_int(lo, hi);
      const std::int64_t c = checked_sub(checked_sub(B, a), b);
      if (c < lo || c > hi) continue;
      instance.items.push_back(a);
      instance.items.push_back(b);
      instance.items.push_back(c);
      break;
    }
  }
  prng.shuffle(instance.items);
  return instance;
}

Instance add_gap_reservation(const Instance& base, Time gap_start,
                             Time gap_length) {
  RESCHED_REQUIRE(gap_start >= 0 && gap_length >= 1);
  RESCHED_REQUIRE_MSG(base.reservation_horizon() <= gap_start,
                      "gap reservation must not overlap existing ones");
  std::vector<Reservation> reservations = base.reservations();
  reservations.push_back(
      Reservation{static_cast<ReservationId>(reservations.size()), base.m(),
                  gap_length, gap_start, "gap"});
  return Instance(base.m(), base.jobs(), std::move(reservations));
}

}  // namespace resched
