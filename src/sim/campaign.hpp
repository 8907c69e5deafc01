// CampaignRunner: fan a generator-driven set of instances across schedulers
// on a thread pool, with bit-reproducible results.
//
// The sweep drivers (examples/campaign, bench_campaign) all share the same
// shape: generate N seeded instances, run every scheduler on each, aggregate
// ScheduleMetrics per scheduler. run_campaign is that engine. The work unit
// is one (instance, scheduler) pair, so a registry mixing a ~100x-slower
// scheduler (local-search) with cheap ones load-balances at scheduler
// granularity instead of serializing the tail behind one worker's whole
// instance. Determinism contract: the result is a pure function of
// (generator, config) -- never of the thread count, of scheduling order, or
// of the instance-sharing mode. This holds because
//   * each instance index gets its own PRNG seed, derived sequentially from
//     the master seed before any thread starts;
//   * an (instance, scheduler) task either regenerates its instance from
//     that per-index seed (share_instances = false) or reads the one
//     instance generated for its index (share_instances = true); both modes
//     hand the scheduler the same bits, so the aggregates are identical;
//   * per-task metrics land in a preallocated (instance, scheduler) slot
//     written by exactly one worker, and aggregation runs single-threaded
//     afterwards in (scheduler, instance) order.
//
// Sharing is safe because every read of a generated instance is const, and
// const reads touch no mutable state: StepProfile, the structure underneath
// it, holds no cache (core/step_profile.hpp). Regeneration is kept as the
// default only because it is the seed behavior; share_instances skips
// instances-x-schedulers redundant generator runs and is the mode to use at
// production scale.
//
// Domain handling: schedulers report out-of-domain instances through the
// typed DomainError arm of ScheduleOutcome, which the runner counts per
// reason (CampaignCell::skipped_by_reason). Nothing is caught around
// schedule(): a RESCHED_REQUIRE / RESCHED_CHECK violation deep inside a
// scheduler propagates and aborts the whole campaign -- a tripped
// precondition is a bug to surface, not a skip to tally.
//
// Wall-clock timings are recorded per scheduler but excluded from
// to_table(false), which the determinism test compares across thread counts
// and sharing modes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/scheduler.hpp"
#include "core/instance.hpp"
#include "core/types.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace resched {

// Builds the index-th instance of the campaign from its derived seed. Must
// be thread-safe for concurrent calls with distinct indices (pure functions
// of (index, seed) trivially are).
using InstanceGenerator =
    std::function<Instance(std::size_t index, std::uint64_t seed)>;

struct CampaignConfig {
  std::size_t instances = 16;
  std::uint64_t seed = 1;
  // 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  // Empty = every scheduler in the registry.
  std::vector<std::string> schedulers;
  // Bounded-slowdown threshold passed to compute_metrics.
  Time tau = 10;
  // Re-validate every schedule against the instance (differential oracle for
  // the scheduler + profile stack); throws on the first violation.
  bool validate = true;
  // true: generate each instance once -- on first touch, under a
  // per-instance std::call_once, so generation overlaps the task phase
  // instead of running behind a pregeneration barrier -- and let every
  // scheduler task read it shared; false: regenerate per task (seed
  // behavior). Aggregates are bit-identical either way.
  bool share_instances = false;
  // Run bounds/check_guarantee on every produced schedule and tally the
  // compliance verdicts per scheduler (the scenario-matrix survival
  // report). Off by default: it costs a makespan_lower_bound per task.
  bool check_guarantees = false;
  // With check_guarantees: instances of at most this many jobs (and no
  // release times) get an exact B&B reference, so a bound breach is a
  // definite kViolated instead of kInconclusive. 0 = lower bounds only.
  std::size_t guarantee_exact_n = 0;
};

// Aggregates over the instances one scheduler handled.
struct CampaignCell {
  std::string scheduler;
  std::size_t scheduled = 0;  // instances inside the algorithm's domain
  std::size_t skipped = 0;    // DomainError rejections (sum of the below)
  // Skip counts bucketed by DomainReason (index = enum value).
  std::array<std::size_t, kDomainReasonCount> skipped_by_reason{};
  OnlineStats makespan;
  OnlineStats utilization;
  OnlineStats mean_wait;
  OnlineStats max_wait;
  OnlineStats mean_bounded_slowdown;
  double seconds = 0.0;  // wall-clock inside schedule(), summed

  // Guarantee-compliance tallies over the scheduled instances (populated
  // only when CampaignConfig::check_guarantees is set; they sum to
  // `scheduled` then). `guarantee_none` counts instances whose class has
  // no finite guarantee at all (Theorem 1's unrestricted reservations).
  std::size_t guarantee_proven = 0;
  std::size_t guarantee_violated = 0;
  std::size_t guarantee_inconclusive = 0;
  std::size_t guarantee_none = 0;

  // Human-readable reason breakdown, e.g. "reservations=3 release-times=1";
  // empty when nothing was skipped.
  [[nodiscard]] std::string skip_reasons() const;
};

struct CampaignResult {
  std::size_t instances = 0;
  std::vector<CampaignCell> cells;  // one per scheduler, in request order

  // Aggregated metrics table; include_timing adds the (non-deterministic)
  // schedules/sec column.
  [[nodiscard]] Table to_table(bool include_timing = true) const;
};

[[nodiscard]] CampaignResult run_campaign(const InstanceGenerator& generator,
                                          const CampaignConfig& config);

}  // namespace resched
