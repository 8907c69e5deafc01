#include "sim/service_sim.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/instance.hpp"
#include "core/profile_allocator.hpp"
#include "sim/des.hpp"
#include "util/checked.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"

namespace resched {
namespace {

constexpr int kWarmup = 0;
constexpr int kMeasure = 1;
constexpr int kCooldown = 2;

// Completion budget for history compaction: every completion strands ~2
// dead segments behind the clock, so compaction also fires after this many
// completions even when ServiceConfig::compact_interval ticks have not
// elapsed (a saturated step can see hundreds of completions per interval).
constexpr std::uint64_t kCompactCompletionBudget = 32;

// Salt folded into the step seed for the churn stream, so churn draws are
// independent of the arrival draws under the same seed.
constexpr std::uint64_t kChurnSeedSalt = 0x6368'7572'6e21'7331ULL;

struct ServiceJob {
  Time arrival = 0;
  ProcCount q = 1;
  Time p = 1;
  int phase = kWarmup;
};

// An active churn availability window: `width` processors withdrawn over
// [start, end). Kept (also) outside the profile so the scratch path can
// rebuild them as reservations and moves can find future windows.
struct ChurnWindow {
  Time start = 0;
  Time end = 0;
  ProcCount width = 0;
};

// One fixed-rate service step: owns the DES, the queue, the persistent
// capacity profile and the recorders.
class ServiceLoop {
 public:
  ServiceLoop(const Scheduler& scheduler, const LoadGenConfig& load,
              std::uint64_t seed, double rate, const ServiceConfig& config)
      : scheduler_(scheduler),
        config_(config),
        m_(load.m),
        use_replan_(scheduler.capabilities().incremental_replan),
        append_replan_(use_replan_ &&
                       scheduler.capabilities().append_only_replan),
        maintain_profile_(use_replan_ || config.churn.enabled() ||
                          !config.availability.empty()),
        gen_(load, seed),
        free_(StepProfile(static_cast<std::int64_t>(load.m))) {
    gen_.set_rate(rate);
    result_.offered_rate = rate;
    jobs_.reserve(config.phases.total());
    if (maintain_profile_) free_.set_retain_accepted(true);
    if (config.churn.enabled())
      churn_.emplace(config.churn, seed ^ kChurnSeedSalt);
  }

  ServiceStepResult run() {
    if (config_.phases.total() > 0) {
      apply_availability();
      schedule_next_arrival();
      // Sampler lifecycle: anchored at simulation start (not at the first
      // measure arrival), so a warmup-phase backlog bail can never leave
      // the chain unscheduled; it dies when measurement closes.
      if (config_.phases.measure > 0) schedule_queue_sample();
      if (churn_.has_value()) schedule_next_churn();
      sim_.run();
    }
    RESCHED_CHECK_MSG(busy_ == 0, "machines still busy after service drain");
    result_.end_queue_depth = waiting_.size();
    result_.sim_end = sim_.now();
    result_.measured = measured_done_;
    if (measured_done_ > 0) {
      // resched-lint: time-arith-audited(phases keep measure_end_ >= measure_begin_)
      const Time span = std::max<Time>(1, measure_end_ - measure_begin_);
      result_.sustained_rate =
          static_cast<double>(measured_done_) * 1000.0 /
          static_cast<double>(span);
    }
    if (config_.phases.measure > 0 && !result_.saturated) {
      // Queue growth diverged if measurement could not finish (bail aborted
      // the step; churn-canceled measure jobs are accounted, not blamed) or
      // completions fell behind the offered rate.
      result_.saturated =
          measured_done_ + measure_canceled_ < config_.phases.measure ||
          result_.sustained_rate <
              config_.saturation_fraction * result_.offered_rate;
    }
    return std::move(result_);
  }

 private:
  // resched-lint: determinism-audited(wall-latency percentiles only; sim time is the tick clock)
  using WallClock = std::chrono::steady_clock;
  // Running jobs keyed by arrival index: cancellation erases the record and
  // the stale completion event finds nothing. A sorted vector, not a map:
  // the population is bounded by what fits on m processors, inserts happen
  // inside the timed decision window (a map would pay one node allocation
  // per started job there, a vector reuses its high-water capacity), and
  // iteration stays in ascending key order -- the churn cancel pick and the
  // scratch-path reservation order depend on exactly that.
  struct RunningRec {
    Time end = 0;
    ProcCount q = 1;
  };
  using RunningVec = std::vector<std::pair<std::uint64_t, RunningRec>>;

  [[nodiscard]] RunningVec::iterator find_running(std::uint64_t index) {
    const auto it = std::lower_bound(
        running_.begin(), running_.end(), index,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    if (it != running_.end() && it->first == index) return it;
    return running_.end();
  }

  [[nodiscard]] int phase_of(std::uint64_t index) const noexcept {
    if (index < config_.phases.warmup) return kWarmup;
    if (index < config_.phases.warmup + config_.phases.measure)
      return kMeasure;
    return kCooldown;
  }

  // Measurement closes when every measure-phase job is accounted for --
  // served or churn-canceled (without the canceled term a canceled measure
  // job would hold the window open forever).
  [[nodiscard]] bool measure_finished() const noexcept {
    return measured_done_ + measure_canceled_ >= config_.phases.measure;
  }

  // Measurement window: open from the first measure-phase arrival until the
  // last measure-phase job is accounted.
  [[nodiscard]] bool in_measure() const noexcept {
    return measure_begin_ >= 0 && !measure_finished();
  }

  [[nodiscard]] bool drained() const noexcept {
    return emitted_ == config_.phases.total() && waiting_.empty() &&
           running_.empty();
  }

  void schedule_next_arrival() {
    if (aborted_ || emitted_ >= config_.phases.total()) return;
    const ArrivalSpec spec = gen_.next();
    const std::uint64_t index = emitted_++;
    sim_.at(std::max(spec.time, sim_.now()),
            [this, spec, index](Simulation&) { on_arrival(spec, index); });
  }

  void on_arrival(const ArrivalSpec& spec, std::uint64_t index) {
    if (aborted_) return;
    RESCHED_CHECK_MSG(index == jobs_.size(), "arrivals fired out of order");
    jobs_.push_back(
        ServiceJob{sim_.now(), spec.q, spec.p, phase_of(index)});
    waiting_.push_back(index);
    ++result_.arrivals;
    result_.peak_queue_depth =
        std::max(result_.peak_queue_depth, waiting_.size());
    if (jobs_.back().phase == kMeasure && measure_begin_ < 0) {
      measure_begin_ = sim_.now();
      result_.queue_depth.record(
          static_cast<std::int64_t>(waiting_.size()));
    }
    if (waiting_.size() > config_.bail_queue_depth) {
      // Divergence bail-out: stop the arrival chain and all dispatching;
      // already-running jobs drain, the backlog stays as evidence. The
      // queue_depth guarantee: a step with a measure phase always leaves at
      // least one sample, even when the bail hits during warmup.
      aborted_ = true;
      result_.saturated = true;
      if (config_.phases.measure > 0 && result_.queue_depth.count() == 0) {
        result_.queue_depth.record(
            static_cast<std::int64_t>(waiting_.size()));
      }
      return;
    }
    schedule_next_arrival();
    dispatch();
  }

  void on_complete(std::uint64_t index) {
    const auto it = find_running(index);
    if (it == running_.end()) return;  // churn-canceled; stale event
    const ServiceJob& job = jobs_[index];
    // resched-lint: time-arith-audited(busy_ tracks admitted q; stays in [0, m])
    busy_ -= job.q;
    running_.erase(it);
    ++result_.completed;
    ++completions_since_compact_;
    if (job.phase == kMeasure) {
      result_.response_ticks.record(checked_sub(sim_.now(), job.arrival));
      ++measured_done_;
      measure_end_ = sim_.now();
    }
    if (aborted_) return;
    dispatch();
  }

  void schedule_queue_sample() {
    sim_.after(config_.queue_sample_interval, [this](Simulation&) {
      if (aborted_ || measure_finished()) return;  // chain dies
      if (in_measure())
        result_.queue_depth.record(
            static_cast<std::int64_t>(waiting_.size()));
      schedule_queue_sample();
    });
  }

  // ---- churn -------------------------------------------------------------

  void schedule_next_churn() {
    const ChurnEvent event = churn_->next();
    sim_.after(event.gap, [this, event](Simulation&) {
      if (aborted_ || drained()) return;  // chain dies with the step
      apply_churn(event);
      schedule_next_churn();
    });
  }

  void note_canceled(const ServiceJob& job) {
    ++result_.canceled;
    if (job.phase == kMeasure) ++measure_canceled_;
  }

  void apply_churn(const ChurnEvent& event) {
    const Time now = sim_.now();
    // Every churn kind either mutates the world profile (which requires an
    // empty plan stack and changes what a re-solve would produce) or edits
    // the waiting queue under the retained plan's feet: the plan suffix it
    // invalidates is rewound here, and the next dispatch replans it.
    drop_retained();
    purge_windows(now);
    switch (event.kind) {
      case ChurnKind::kCancelWaiting: {
        if (waiting_.empty()) break;
        const std::size_t pos =
            static_cast<std::size_t>(event.pick % waiting_.size());
        note_canceled(jobs_[waiting_[pos]]);
        waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(pos));
        ++result_.churn_events;
        ++result_.churn_cancel_waiting;
        dispatch();  // repair: the queue suffix changed
        return;
      }
      case ChurnKind::kCancelRunning: {
        // Eligible: completion strictly in the future (a job ending at this
        // exact tick is effectively done; its event fires this tick).
        // Collected in ascending-key order (running_ is key-sorted), so the
        // pick is bit-identical to the old std::map iteration.
        // resched-lint: hot-path-alloc-audited(rare churn event, not per-decision)
        std::vector<std::size_t> eligible;
        for (std::size_t i = 0; i < running_.size(); ++i)
          if (running_[i].second.end > now) eligible.push_back(i);
        if (eligible.empty()) break;
        const auto it =
            running_.begin() +
            static_cast<std::ptrdiff_t>(eligible[event.pick % eligible.size()]);
        const RunningRec rec = it->second;
        note_canceled(jobs_[it->first]);
        // resched-lint: time-arith-audited(busy_ tracks admitted q; stays in [0, m])
        busy_ -= rec.q;
        running_.erase(it);  // the pending completion event becomes a no-op
        if (maintain_profile_)
          free_.adjust_capacity(now, rec.end,
                                static_cast<std::int64_t>(rec.q));
        ++result_.churn_events;
        ++result_.churn_cancel_running;
        dispatch();  // repair: capacity rose at now
        return;
      }
      case ChurnKind::kAvailabilityDrop: {
        const Time start = checked_add(now, event.lead);
        const Time end = checked_add(start, event.duration);
        // Clamp the width to what the window can afford: running jobs (and
        // earlier windows) already hold their processors.
        const std::int64_t width =
            std::min<std::int64_t>(event.width, free_.profile().min_in(start, end));
        if (width <= 0) break;
        free_.adjust_capacity(start, end, -width);
        windows_.push_back(
            ChurnWindow{start, end, static_cast<ProcCount>(width)});
        schedule_window_end(end);
        ++result_.churn_events;
        ++result_.churn_drops;
        dispatch();  // repair: the plan horizon lost capacity
        return;
      }
      case ChurnKind::kReservationMove: {
        // resched-lint: hot-path-alloc-audited(rare churn event, not per-decision)
        std::vector<std::size_t> future;
        for (std::size_t i = 0; i < windows_.size(); ++i)
          if (windows_[i].start > now) future.push_back(i);
        if (future.empty()) break;
        ChurnWindow& window = windows_[future[event.pick % future.size()]];
        // resched-lint: time-arith-audited(windows are built with end >= start)
        const Time duration = window.end - window.start;
        free_.adjust_capacity(window.start, window.end,
                              static_cast<std::int64_t>(window.width));
        // resched-lint: time-arith-audited(generator-bounded shift, clamped below)
        Time moved = window.start + event.shift;
        // resched-lint: time-arith-audited(sim clock is horizon-bounded)
        if (moved <= now) moved = now + 1;
        const Time moved_end = checked_add(moved, duration);
        if (free_.profile().min_in(moved, moved_end) >= window.width) {
          free_.adjust_capacity(moved, moved_end,
                                -static_cast<std::int64_t>(window.width));
          window.start = moved;
          window.end = moved_end;
          schedule_window_end(moved_end);
          ++result_.churn_events;
          ++result_.churn_moves;
          dispatch();  // repair: capacity moved in time
        } else {
          // Infeasible at the shifted position: restore the original
          // window (always fits -- it was just vacated) and skip.
          free_.adjust_capacity(window.start, window.end,
                                -static_cast<std::int64_t>(window.width));
          ++result_.churn_skipped;
        }
        return;
      }
    }
    ++result_.churn_skipped;  // no eligible target for this event
  }

  // Planned (scenario) availability windows, applied once before the first
  // arrival. They ride the exact churn-drop machinery -- permanent capacity
  // withdrawal on the persistent profile, a windows_ record for the scratch
  // path's reservation rebuild, a wakeup at each window end -- but unlike
  // drops they are part of the step's contract: an infeasible window (the
  // stack would dip below zero processors) is a configuration error, not a
  // skip.
  void apply_availability() {
    for (const AvailabilityWindow& window : config_.availability) {
      RESCHED_REQUIRE_MSG(window.width >= 1 && window.start >= 0 &&
                              window.end > window.start,
                          "availability window needs width >= 1 and "
                          "end > start >= 0");
      RESCHED_REQUIRE_MSG(
          free_.profile().min_in(window.start, window.end) >= window.width,
          "availability windows exceed the machine where they overlap");
      free_.adjust_capacity(window.start, window.end,
                            -static_cast<std::int64_t>(window.width));
      windows_.push_back(ChurnWindow{window.start, window.end, window.width});
      schedule_window_end(window.end);
      ++result_.scenario_windows;
    }
  }

  // A window's end is a capacity-increase instant with no natural DES
  // event; without this a blocked job could wait past its feasible start
  // until the next arrival/completion (or forever).
  void schedule_window_end(Time end) {
    sim_.at(end, [this](Simulation&) {
      if (!aborted_) dispatch();
    });
  }

  void purge_windows(Time now) {
    std::erase_if(windows_,
                  [now](const ChurnWindow& w) { return w.end <= now; });
  }

  // ---- planning ----------------------------------------------------------

  // Coalesce dead plan history behind the clock. Callers gate the cadence.
  void compact_now(Time now) {
    last_compact_ = now;
    completions_since_compact_ = 0;
    const std::size_t removed = free_.compact_history(now);
    if (removed > 0) {
      ++result_.history_compactions;
      result_.compacted_segments += removed;
    }
  }

  [[nodiscard]] bool compact_due(Time now, Time threshold) const {
    // resched-lint: time-arith-audited(monotonic sim clock: now >= last_compact_)
    return now - last_compact_ >= threshold ||
           completions_since_compact_ >= kCompactCompletionBudget;
  }

  // Fills the persistent wakeups_ buffer (capacity reused across
  // decisions; a fresh vector here would be one heap event per decision).
  const std::vector<Time>& collect_wakeups(Time now) {
    wakeups_.clear();
    for (const auto& [index, rec] : running_) wakeups_.push_back(rec.end);
    for (const ChurnWindow& w : windows_)
      if (w.end > now) wakeups_.push_back(w.end);
    return wakeups_;
  }

  // Rewind the retained plan's frames off the persistent profile
  // (O(touched)) and forget its starts. Called whenever an event
  // invalidates the plan suffix: a churn mutation (it needs the
  // empty stack for adjust_capacity and changes what a re-solve would
  // produce), a queue edit, or the periodic compaction rebase. Jobs that
  // started *under* the plan were living inside their plan frames; the
  // rewind takes their occupancy with it, so it is re-applied permanently
  // here (only the [now, end) remainder -- earlier history is dead).
  void drop_retained() {
    if (!retained_live_) return;
    result_.plan_frames_rewound +=
        free_.open_commits() - retained_plan_.base.depth;
    free_.rewind_to(retained_plan_.base);
    retained_live_ = false;
    retained_plan_.starts.clear();  // capacity survives for the next plan
    const Time now = sim_.now();
    for (const std::uint64_t index : framed_) {
      const auto it = find_running(index);
      if (it == running_.end() || it->second.end <= now) continue;
      free_.adjust_capacity(now, it->second.end,
                            -static_cast<std::int64_t>(it->second.q));
    }
    framed_.clear();
  }

  // Append-mode suffix repair: plan only the jobs that arrived since the
  // retained plan, on the profile that still holds the prefix's frames.
  // Valid exactly for append_only_replan schedulers (FCFS folds): the
  // prefix's re-solve is bit-identical to the retained plan, so only the
  // suffix is new work. `not_before` continues fcfs's non-overtaking chain.
  void append_suffix(Time now, std::size_t planned, std::size_t k) {
    window_jobs_.clear();
    for (std::size_t j = planned; j < k; ++j) {
      const ServiceJob& job = jobs_[waiting_[j]];
      window_jobs_.push_back(Job{static_cast<JobId>(j - planned), job.q,
                                 job.p, job.arrival, ""});
    }
    const std::vector<Time>& wakeups = collect_wakeups(now);
    const Time floor = std::max(
        now, retained_plan_.starts.empty() ? now
                                           : retained_plan_.starts.back());
    const Schedule plan = scheduler_.replan(ReplanRequest{
        free_, window_jobs_, wakeups, m_, now, floor, &decision_arena_});
    for (std::size_t j = planned; j < k; ++j)
      retained_plan_.starts.push_back(
          plan.start(static_cast<JobId>(j - planned)));
    result_.suffix_jobs_replanned += k - planned;
  }

  // Incremental path: plan directly on the persistent absolute-time
  // profile. Append-capable schedulers keep their plan frames open across
  // decisions and replan only the arrived suffix; the rest replan the
  // window each decision (checkpoint -> replan -> rewind). Returned starts
  // are absolute and aligned with the window.
  const std::vector<Time>& plan_incremental(Time now, std::size_t k) {
    // The retained plan survives starts and completions outright; settle()
    // rebases it (drop + compact, after the latency sample) once the
    // compaction deadline passes, so the frame stack and the dead history
    // stay bounded and the next decision here re-solves the full window.
    if (append_replan_ && retained_live_) {
      const std::size_t planned = retained_plan_.starts.size();
      RESCHED_CHECK_MSG(planned <= k,
                        "retained plan outlived a queue shrink");
      if (planned < k) append_suffix(now, planned, k);
      return retained_plan_.starts;
    }
    drop_retained();
    retained_plan_.starts.clear();
    window_jobs_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      const ServiceJob& job = jobs_[waiting_[j]];
      window_jobs_.push_back(
          Job{static_cast<JobId>(j), job.q, job.p, job.arrival, ""});
    }
    const std::vector<Time>& wakeups = collect_wakeups(now);
    retained_plan_.base = free_.checkpoint();
    const Schedule plan = scheduler_.replan(ReplanRequest{
        free_, window_jobs_, wakeups, m_, now, now, &decision_arena_});
    result_.suffix_jobs_replanned += k;
    for (std::size_t j = 0; j < k; ++j)
      retained_plan_.starts.push_back(plan.start(static_cast<JobId>(j)));
    // Retain for every scheduler: append-capable ones reuse the plan on
    // later decisions; the rest have it rewound by settle() right after
    // this decision's latency sample -- the rewind prepares the NEXT
    // decision and does not belong in this one's timed window.
    retained_live_ = true;
    return retained_plan_.starts;
  }

  // Scratch path: translate the live state into a fresh Instance relative
  // to now (running jobs and churn windows as reservations) and full-solve.
  Schedule plan_scratch(Time now, std::size_t k) {
    // resched-lint: hot-path-alloc-audited(scratch full-solve, non-incremental schedulers only)
    std::vector<Job> window;
    window.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      const ServiceJob& job = jobs_[waiting_[j]];
      window.push_back(Job{static_cast<JobId>(j), job.q, job.p, 0, ""});
    }
    // resched-lint: hot-path-alloc-audited(scratch full-solve, non-incremental schedulers only)
    std::vector<Reservation> held;
    held.reserve(running_.size() + windows_.size());
    ReservationId rid = 0;
    for (const auto& [index, rec] : running_) {
      // Strictly positive by the same-tick drain in dispatch(): a job
      // completing at this exact tick is never presented as a phantom
      // one-tick reservation.
      const Time remaining = checked_sub(rec.end, now);
      held.push_back(Reservation{rid++, rec.q, remaining, 0, ""});
    }
    for (const ChurnWindow& w : windows_) {
      if (w.end <= now) continue;
      const Time from = std::max(w.start, now);
      held.push_back(Reservation{rid++, w.width, checked_sub(w.end, from),
                                 checked_sub(from, now), ""});
    }
    const Instance instance(m_, std::move(window), std::move(held));
    return scheduler_.schedule(instance).value();
  }

  // Re-plan on event: hand the scheduler the head of the waiting queue,
  // then commit exactly the jobs it placed at the current instant.
  void dispatch() {
    const Time now = sim_.now();
    if (waiting_.empty()) {
      // Idle-time rebase: when a compaction is due (or due soon -- half
      // the interval, so an arrival landing just past the deadline cannot
      // force it into a timed decision) and there is nothing to plan,
      // dropping the retained frames and compacting here is almost free,
      // and the next arrival rebuilds a plan for a near-empty queue.
      // Under sustained pressure the queue never empties and the
      // in-decision rebase in plan_incremental() fires instead, where the
      // scratch alternative it replaces is expensive anyway. This keeps
      // the periodic rebase spike out of the sub-saturation decision tail.
      if (use_replan_ && result_.decisions_incremental > 0 &&
          compact_due(now, config_.compact_interval / 2)) {
        drop_retained();
        compact_now(now);
      }
      return;
    }
    // Same-tick completion drain: if any running job ends at this exact
    // tick but its completion event has not fired yet, defer -- that event
    // re-dispatches with the processors truly free. This removes both the
    // phantom one-tick reservation and any transient over-busy planning.
    for (const auto& [index, rec] : running_) {
      if (rec.end == now) {
        ++result_.deferred_dispatches;
        return;
      }
    }
    // Scope reset: everything the previous decision bump-allocated is dead
    // by contract (ReplanRequest::scratch), so the arena rewinds to empty
    // while keeping its chunks -- steady-state decisions reuse warm memory.
    decision_arena_.reset();
    const bool time_it = config_.record_wall_latency;
    const std::uint64_t allocs_begin = alloc_count();
    const WallClock::time_point wall_begin =
        time_it ? WallClock::now() : WallClock::time_point{};

    const std::size_t k = std::min(waiting_.size(), config_.dispatch_window);
    purge_windows(now);

    head_.clear();  // window positions starting now
    if (use_replan_) {
      const std::vector<Time>& starts = plan_incremental(now, k);
      ++result_.decisions_incremental;
      if (config_.verify_incremental) {
        // Full re-solve oracle per decision. With a retained plan this is
        // the strongest form of the append-equivalence claim: the prefix
        // starts were computed at an earlier instant and must still match
        // a from-scratch solve at this one.
        const Schedule oracle = plan_scratch(now, k);
        ++result_.decisions_scratch;
        for (std::size_t j = 0; j < k; ++j) {
          RESCHED_CHECK_MSG(
              starts[j] ==
                  checked_add(oracle.start(static_cast<JobId>(j)), now),
              "incremental replan diverged from the full re-solve oracle");
        }
      }
      for (std::size_t j = 0; j < k; ++j)
        if (starts[j] == now) head_.push_back(j);
    } else {
      const Schedule plan = plan_scratch(now, k);
      ++result_.decisions_scratch;
      for (std::size_t j = 0; j < k; ++j)
        if (plan.start(static_cast<JobId>(j)) == 0) head_.push_back(j);
    }
    ++result_.decisions;

    for (auto pos = head_.rbegin(); pos != head_.rend(); ++pos) {
      start_job(waiting_[*pos]);
      waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(*pos));
      // The retained plan tracks the queue: the started job leaves both.
      // Its occupancy stays behind in its plan frame (see start_job), so
      // the remaining starts are untouched -- a re-solve of the remaining
      // queue sees the identical profile.
      if (retained_live_)
        retained_plan_.starts.erase(retained_plan_.starts.begin() +
                                    static_cast<std::ptrdiff_t>(*pos));
    }

    if (in_measure()) {
      ++result_.decisions_measured;
      result_.decision_allocs += alloc_count() - allocs_begin;
      if (time_it) {
        result_.decision_ns.record(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                WallClock::now() - wall_begin)
                .count());
      }
    }
    settle(now);
  }

  // Post-decision maintenance, outside the timed window. The decision's
  // output is complete once the heads have started; rewinding a
  // non-append scheduler's plan frames and compacting dead history only
  // prepare the profile for the NEXT decision, so they run after the
  // latency sample (deferred reclamation -- respond first, clean up
  // before the next event). Append-capable schedulers keep their plan and
  // rebase here only when the compaction deadline has passed.
  void settle(Time now) {
    if (!use_replan_) return;
    if (append_replan_) {
      // The plan is kept across decisions; dropping it forces the next
      // decision to re-solve the whole window, so rebase only at the
      // compaction deadline.
      // resched-lint: time-arith-audited(monotonic sim clock: now >= last_compact_)
      if (now - last_compact_ < config_.compact_interval) return;
      drop_retained();
      compact_now(now);
      return;
    }
    // Non-append schedulers re-solve every decision anyway: reclaim the
    // plan frames immediately, and compact as soon as any completion has
    // stranded dead history (each completion leaves ~2 dead segments, and
    // every live one drags each backfill splice of the next re-solve; the
    // compaction itself is a single untimed splice, far cheaper).
    drop_retained();
    if (completions_since_compact_ > 0 ||
        // resched-lint: time-arith-audited(monotonic sim clock: now >= last_compact_)
        now - last_compact_ >= config_.compact_interval)
      compact_now(now);
  }

  void start_job(std::uint64_t index) {
    const ServiceJob& job = jobs_[index];
    // resched-lint: time-arith-audited(busy_ tracks admitted q; stays in [0, m])
    busy_ += job.q;
    RESCHED_CHECK_MSG(busy_ <= m_, "service dispatch exceeded capacity");
    if (job.phase == kMeasure)
      result_.wait_ticks.record(checked_sub(sim_.now(), job.arrival));
    const Time completion = checked_add(sim_.now(), job.p);
    const auto at = std::lower_bound(
        running_.begin(), running_.end(), index,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
    running_.insert(at, {index, RunningRec{completion, job.q}});
    if (retained_live_) {
      // Started under a retained plan: the job's occupancy [now, completion)
      // is already subtracted by its own plan frame, so the start mutates
      // nothing. drop_retained() re-applies the remainder permanently when
      // the plan eventually dies.
      framed_.push_back(index);
    } else if (maintain_profile_) {
      // The start is a permanent world change: occupancy [now, completion)
      // leaves the profile by natural expiry, so a normal completion needs
      // no mutation at all.
      free_.adjust_capacity(sim_.now(), completion,
                            -static_cast<std::int64_t>(job.q));
    }
    sim_.at(completion, [this, index](Simulation&) { on_complete(index); });
  }

  const Scheduler& scheduler_;
  const ServiceConfig& config_;
  const ProcCount m_;
  const bool use_replan_;
  // FCFS-fold schedulers (append_only_replan) keep plan frames open across
  // decisions; pure-arrival dispatches then replan only the new suffix.
  const bool append_replan_;
  // The persistent profile is maintained whenever the incremental path or
  // churn needs it; pure scratch steps skip the bookkeeping entirely.
  const bool maintain_profile_;
  LoadGen gen_;
  Simulation sim_;
  FreeProfile free_;  // persistent absolute-time capacity, plan-recording on
  std::optional<ChurnGen> churn_;
  std::vector<ChurnWindow> windows_;  // active/future availability drops
  std::vector<ServiceJob> jobs_;      // indexed by arrival order
  std::deque<std::uint64_t> waiting_;  // job indices, arrival order
  RunningVec running_;
  ProcCount busy_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t measured_done_ = 0;
  std::uint64_t measure_canceled_ = 0;
  Time measure_begin_ = -1;
  Time measure_end_ = 0;
  Time last_compact_ = 0;
  std::uint64_t completions_since_compact_ = 0;
  // The live plan of an append-capable scheduler: frames still open on
  // free_, absolute starts aligned with waiting_[0..starts.size()).
  // A persistent member guarded by retained_live_ rather than an optional:
  // the starts buffer's capacity survives drop/retain cycles, so the
  // steady-state decision never reallocates it.
  struct RetainedPlan {
    FreeProfile::Checkpoint base;
    std::vector<Time> starts;
  };
  RetainedPlan retained_plan_;
  bool retained_live_ = false;
  // Decision-scoped bump allocator handed to the scheduler through
  // ReplanRequest::scratch; reset (chunks kept) at each dispatch entry.
  Arena decision_arena_;
  // Per-decision scratch buffers: cleared and refilled each decision, the
  // high-water capacity is reused so the timed window stays allocation-free.
  std::vector<std::size_t> head_;
  std::vector<Job> window_jobs_;
  std::vector<Time> wakeups_;
  // Jobs started while a plan was retained: their occupancy lives in plan
  // frames, not in the permanent profile, until drop_retained() rebases it.
  std::vector<std::uint64_t> framed_;
  bool aborted_ = false;
  ServiceStepResult result_;
};

}  // namespace

ServiceStepResult run_service_step(const Scheduler& scheduler,
                                   const LoadGenConfig& load,
                                   std::uint64_t seed, double rate,
                                   const ServiceConfig& config) {
  RESCHED_REQUIRE_MSG(std::isfinite(rate) && rate > 0.0,
                      "offered rate must be positive and finite");
  const ServicePhases& phases = config.phases;
  RESCHED_REQUIRE_MSG(
      phases.measure <= UINT64_MAX - phases.warmup &&
          phases.cooldown <= UINT64_MAX - phases.warmup - phases.measure,
      "service phase total overflows");
  RESCHED_REQUIRE(config.dispatch_window >= 1);
  RESCHED_REQUIRE(config.queue_sample_interval >= 1);
  RESCHED_REQUIRE(config.compact_interval >= 1);
  RESCHED_REQUIRE(config.saturation_fraction > 0.0 &&
                  config.saturation_fraction <= 1.0);
  RESCHED_REQUIRE_MSG(scheduler.capabilities().reservations,
                      "service harness models running jobs as reservations; "
                      "the scheduler must accept them");
  RESCHED_REQUIRE_MSG(!config.verify_incremental ||
                          scheduler.capabilities().incremental_replan,
                      "verify_incremental requires a scheduler with "
                      "capabilities().incremental_replan");
  ServiceLoop loop(scheduler, load, seed, rate, config);
  return loop.run();
}

double ServiceSweepResult::knee_rate() const {
  RESCHED_REQUIRE(has_knee());
  return steps[static_cast<std::size_t>(knee_index)].offered_rate;
}

std::size_t service_sweep_step_count(double step_size, double step_stop) {
  RESCHED_REQUIRE_MSG(std::isfinite(step_size) && std::isfinite(step_stop),
                      "sweep rates must be finite");
  RESCHED_REQUIRE(step_size > 0.0 && step_stop >= step_size);
  // Exact integer step count, computed once: the old per-iteration
  // `step_size * (i + 1) > step_stop * (1 + eps)` accumulated float error
  // across the sweep and could gain or lose the final step.
  const double steps = std::floor(step_stop / step_size + 1e-9);
  RESCHED_REQUIRE_MSG(steps <= static_cast<double>(INT_MAX),
                      "sweep has more steps than knee_index can count");
  return static_cast<std::size_t>(steps);
}

ServiceSweepResult run_service_sweep(const Scheduler& scheduler,
                                     const LoadGenConfig& load,
                                     std::uint64_t seed, double step_size,
                                     double step_stop,
                                     const ServiceConfig& config) {
  const std::size_t n = service_sweep_step_count(step_size, step_stop);
  ServiceSweepResult sweep;
  sweep.steps.reserve(n);
  Prng root(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double rate = step_size * static_cast<double>(i + 1);
    // The step seed comes from the root stream alone, so every scheduler
    // swept with the same (seed, step_size) faces identical arrivals.
    const std::uint64_t step_seed = root.fork_seed();
    ServiceStepResult step =
        run_service_step(scheduler, load, step_seed, rate, config);
    if (step.saturated && sweep.knee_index < 0)
      sweep.knee_index = static_cast<int>(i);
    sweep.steps.push_back(std::move(step));
  }
  return sweep;
}

}  // namespace resched
