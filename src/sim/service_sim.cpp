#include "sim/service_sim.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/arena.hpp"
#include "core/instance.hpp"
#include "core/profile_allocator.hpp"
#include "sim/event_queue.hpp"
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

// Saturation test: a sustained completion rate below this fraction of the
// offered rate marks the step saturated.
constexpr double kSaturationFraction = 0.95;

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

// A pending service event: what happens and, for arrivals, to which job
// (arrival index). Plain data, so queueing one never allocates; equal-time
// events fire in insertion order (EventQueue). Completions are not events:
// the running jobs are their own queue (ServiceLoop::RunningRec).
enum class EventKind : std::uint8_t {
  kArrival,
  kWindowEnd,
  kQueueSample,
  kChurn,
};

struct Event {
  EventKind kind = EventKind::kArrival;
  std::uint64_t index = 0;
};

// The waiting queue in arrival order, carrying an append-only plan: its
// first planned() entries hold their committed absolute starts. A vector
// with a moving front, so the jobs a decision starts leave in one
// compaction pass that moves only the entries before the last of them;
// the dead prefix is reclaimed once it outgrows the live part.
class WaitingQueue {
 public:
  struct Entry {
    std::uint64_t index = 0;  // arrival index
    Time start = 0;           // planned start; meaningful below planned()
  };

  [[nodiscard]] std::size_t size() const noexcept {
    return entries_.size() - front_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const Entry& operator[](std::size_t j) const noexcept {
    return entries_[front_ + j];
  }

  void push_back(std::uint64_t index) {
    // Amortized O(1): the live entries moved here number at most the
    // removals since the last reclaim.
    if (front_ > 0 && front_ >= size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(front_));
      front_ = 0;
    }
    entries_.push_back(Entry{index, 0});
  }

  // Churn only; the caller has dropped the plan.
  void erase(std::size_t j) {
    RESCHED_CHECK_MSG(planned_ == 0, "a queue edit under a kept plan");
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(front_ + j));
  }

  // ---- the plan: starts of positions [0, planned()) --------------------

  [[nodiscard]] std::size_t planned() const noexcept { return planned_; }
  // Earliest planned start, kTimeInfinity without a plan.
  [[nodiscard]] Time earliest_start() const noexcept { return earliest_; }

  // Plans the next unplanned position.
  void plan_next(Time start) {
    entries_[front_ + planned_++].start = start;
    earliest_ = std::min(earliest_, start);
  }

  void drop_plan() noexcept {
    planned_ = 0;
    earliest_ = kTimeInfinity;
  }

  // Appends to `heads` the planned positions starting at `now` (ascending)
  // and re-derives the earliest start of the rest.
  void collect_starts(Time now, std::vector<std::size_t>& heads) {
    earliest_ = kTimeInfinity;
    for (std::size_t j = 0; j < planned_; ++j) {
      const Time start = entries_[front_ + j].start;
      if (start == now)
        heads.push_back(j);
      else
        earliest_ = std::min(earliest_, start);
    }
  }

  // Removes the positions in `heads` (ascending), keeping the order of the
  // rest and of the plan.
  void remove(const std::vector<std::size_t>& heads) {
    if (heads.empty()) return;
    planned_ -= static_cast<std::size_t>(
        std::lower_bound(heads.begin(), heads.end(), planned_) -
        heads.begin());
    // Walk back from the last head, sliding each survivor right over the
    // heads passed so far; the front then moves past the vacated slots.
    std::size_t dst = front_ + heads.back();
    auto head = heads.rbegin() + 1;  // the next head below dst
    for (std::size_t src = dst; src-- > front_;) {
      if (head != heads.rend() && src == front_ + *head) {
        ++head;
        continue;
      }
      entries_[dst--] = entries_[src];
    }
    front_ += heads.size();
  }

 private:
  std::vector<Entry> entries_;  // [front_, end) is the queue
  std::size_t front_ = 0;
  std::size_t planned_ = 0;
  Time earliest_ = kTimeInfinity;
};

// One fixed-rate service step: owns the event queue, the waiting queue, the
// persistent capacity profile and the recorders.
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
      // Merge the two queues by (time, seq): equal-tick completions and
      // events fire in the order they were queued.
      for (;;) {
        if (!running_.empty() &&
            (events_.empty() || completes_first(running_.front()))) {
          std::pop_heap(running_.begin(), running_.end(), ends_later);
          const RunningRec rec = running_.back();
          running_.pop_back();
          advance_to(rec.end);
          on_complete(rec);
        } else if (!events_.empty()) {
          const auto [time, event] = events_.pop();
          advance_to(time);
          fire(event);
        } else {
          break;
        }
      }
    }
    RESCHED_CHECK_MSG(busy_ == 0, "machines still busy after service drain");
    result_.end_queue_depth = waiting_.size();
    // The step spans every job's booked end, also one canceled while
    // running: a cancel never shortens sim_end.
    result_.sim_end = std::max(now_, canceled_end_);
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
              kSaturationFraction * result_.offered_rate;
    }
    return std::move(result_);
  }

 private:
  // resched-lint: determinism-audited(wall-latency percentiles only; sim time is the tick clock)
  using WallClock = std::chrono::steady_clock;
  // A running job, and its pending completion: running_ is a binary
  // min-heap on (end, seq), so the running jobs are the completion queue.
  // seq is drawn from the event queue's counter when the job starts, so a
  // completion orders against events exactly as if it were one of them.
  // The heap is a vector reusing its high-water capacity, so a start inside
  // the timed decision window allocates nothing. A churn cancel removes the
  // record outright: no stale completion is left behind.
  struct RunningRec {
    Time end = 0;
    std::uint64_t seq = 0;
    std::uint64_t index = 0;  // arrival index
    ProcCount q = 1;
  };

  // The heap order (std::*_heap keep the "largest" in front).
  [[nodiscard]] static bool ends_later(const RunningRec& a,
                                       const RunningRec& b) noexcept {
    if (a.end != b.end) return a.end > b.end;
    return a.seq > b.seq;
  }

  [[nodiscard]] bool completes_first(const RunningRec& rec) const {
    const Time next = events_.next_time();
    return rec.end < next || (rec.end == next && rec.seq < events_.next_seq());
  }

  void advance_to(Time time) {
    RESCHED_CHECK_MSG(time >= now_, "event queue went back in time");
    now_ = time;
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

  // ---- events ------------------------------------------------------------

  void push_event(Time time, EventKind kind, std::uint64_t index = 0) {
    RESCHED_CHECK_MSG(time >= now_, "cannot schedule an event in the past");
    events_.push(time, Event{kind, index});
  }

  void fire(const Event& event) {
    switch (event.kind) {
      case EventKind::kArrival:
        on_arrival(event.index);
        return;
      case EventKind::kWindowEnd:
        if (!aborted_) dispatch();
        return;
      case EventKind::kQueueSample:
        if (aborted_ || measure_finished()) return;  // chain dies
        if (in_measure())
          result_.queue_depth.record(
              static_cast<std::int64_t>(waiting_.size()));
        schedule_queue_sample();
        return;
      case EventKind::kChurn:
        if (aborted_ || drained()) return;  // chain dies with the step
        apply_churn(pending_churn_);
        schedule_next_churn();
        return;
    }
  }

  // The arrival chain keeps one arrival in flight: its spec waits here.
  void schedule_next_arrival() {
    if (aborted_ || emitted_ >= config_.phases.total()) return;
    pending_arrival_ = gen_.next();
    push_event(std::max(pending_arrival_.time, now_), EventKind::kArrival,
               emitted_++);
  }

  void on_arrival(std::uint64_t index) {
    if (aborted_) return;
    RESCHED_CHECK_MSG(index == jobs_.size(), "arrivals fired out of order");
    jobs_.push_back(ServiceJob{now_, pending_arrival_.q, pending_arrival_.p,
                               phase_of(index)});
    waiting_.push_back(index);
    ++result_.arrivals;
    result_.peak_queue_depth =
        std::max(result_.peak_queue_depth, waiting_.size());
    if (jobs_.back().phase == kMeasure && measure_begin_ < 0) {
      measure_begin_ = now_;
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

  void on_complete(const RunningRec& rec) {
    const ServiceJob& job = jobs_[rec.index];
    // resched-lint: time-arith-audited(busy_ tracks admitted q; stays in [0, m])
    busy_ -= rec.q;
    ++result_.completed;
    ++completions_since_compact_;
    if (job.phase == kMeasure) {
      result_.response_ticks.record(checked_sub(now_, job.arrival));
      ++measured_done_;
      measure_end_ = now_;
    }
    if (aborted_) return;
    dispatch();
  }

  void schedule_queue_sample() {
    push_event(checked_add(now_, config_.queue_sample_interval),
               EventKind::kQueueSample);
  }

  // ---- churn -------------------------------------------------------------

  // Like arrivals, the churn chain keeps one event in flight.
  void schedule_next_churn() {
    pending_churn_ = churn_->next();
    push_event(checked_add(now_, pending_churn_.gap), EventKind::kChurn);
  }

  void note_canceled(const ServiceJob& job) {
    ++result_.canceled;
    if (job.phase == kMeasure) ++measure_canceled_;
  }

  void apply_churn(const ChurnEvent& event) {
    const Time now = now_;
    // Every churn kind either mutates the world profile (which changes what
    // a re-solve would produce) or edits the waiting queue under the
    // plan's feet: the plan is returned to the profile here, and the next
    // dispatch re-solves the window.
    drop_plan();
    purge_windows(now);
    switch (event.kind) {
      case ChurnKind::kCancelWaiting: {
        if (waiting_.empty()) break;
        const std::size_t pos =
            static_cast<std::size_t>(event.pick % waiting_.size());
        note_canceled(jobs_[waiting_[pos].index]);
        waiting_.erase(pos);
        ++result_.churn_events;
        ++result_.churn_cancel_waiting;
        dispatch();  // repair: the queue suffix changed
        return;
      }
      case ChurnKind::kCancelRunning: {
        // Eligible: completion strictly in the future (a job ending at this
        // exact tick is effectively done; it completes this tick). The pick
        // counts eligible jobs in ascending arrival index.
        // resched-lint: hot-path-alloc-audited(rare churn event, not per-decision)
        std::vector<std::size_t> eligible;
        for (std::size_t i = 0; i < running_.size(); ++i)
          if (running_[i].end > now) eligible.push_back(i);
        if (eligible.empty()) break;
        const auto nth = eligible.begin() +
                         static_cast<std::ptrdiff_t>(event.pick %
                                                     eligible.size());
        std::nth_element(eligible.begin(), nth, eligible.end(),
                         [this](std::size_t a, std::size_t b) {
                           return running_[a].index < running_[b].index;
                         });
        const RunningRec rec = running_[*nth];
        note_canceled(jobs_[rec.index]);
        // resched-lint: time-arith-audited(busy_ tracks admitted q; stays in [0, m])
        busy_ -= rec.q;
        running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(*nth));
        std::make_heap(running_.begin(), running_.end(), ends_later);
        canceled_end_ = std::max(canceled_end_, rec.end);
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
    push_event(end, EventKind::kWindowEnd);
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

  // Return an append-only scheduler's plan to the profile and forget it.
  // The plan's commits are ordinary permanent commits, so each job still
  // waiting under it gives its planned occupancy back by value; a planned
  // start is never behind the clock, since every job planned at an instant
  // starts at the dispatch there. Jobs that already started keep their
  // occupancy: it is the world change, and it expires on its own.
  // Called only when churn invalidates the plan; with no plan (always, for
  // decision-only schedulers) this is a no-op.
  void drop_plan() {
    const std::size_t planned = waiting_.planned();
    for (std::size_t j = 0; j < planned; ++j) {
      const Time start = waiting_[j].start;
      RESCHED_CHECK_MSG(start >= now_, "a planned start fell behind the clock");
      const ServiceJob& job = jobs_[waiting_[j].index];
      free_.adjust_capacity(start, checked_add(start, job.p),
                            static_cast<std::int64_t>(job.q));
    }
    result_.plan_frames_rewound += planned;
    waiting_.drop_plan();
  }

  // Window positions [from, k) of the waiting queue as a replan queue:
  // dense ids from 0, absolute arrival ticks as releases. Filled in place:
  // the names stay the empty strings the slots were built with.
  const std::vector<Job>& fill_window(std::size_t from, std::size_t k) {
    window_jobs_.resize(k - from);
    for (std::size_t j = from; j < k; ++j) {
      const ServiceJob& job = jobs_[waiting_[j].index];
      Job& slot = window_jobs_[j - from];
      slot.id = static_cast<JobId>(j - from);
      slot.q = job.q;
      slot.p = job.p;
      slot.release = job.arrival;
    }
    return window_jobs_;
  }

  // Append-mode suffix repair: plan only the jobs that arrived since the
  // plan was built, on the profile that already holds the prefix's
  // commits. Valid exactly for append_only_replan schedulers (FCFS folds):
  // the prefix's re-solve is bit-identical to the kept plan, so only the
  // suffix is new work. `not_before` continues fcfs's non-overtaking chain.
  // With no plan (planned == 0) this is the full window solve.
  void append_suffix(Time now, std::size_t planned, std::size_t k) {
    const Time floor =
        planned == 0 ? now : std::max(now, waiting_[planned - 1].start);
    const Schedule plan = scheduler_.replan(ReplanRequest{
        free_, fill_window(planned, k), m_, now, floor, &decision_arena_});
    for (std::size_t j = planned; j < k; ++j)
      waiting_.plan_next(plan.start(static_cast<JobId>(j - planned)));
    result_.suffix_jobs_replanned += k - planned;
  }

  // Incremental path: plan directly on the persistent absolute-time
  // profile and collect in head_ the window positions that start now.
  //  * Append-only schedulers commit their whole plan permanently and keep
  //    it across decisions: each job is planned once, when it enters the
  //    window, and a job reaching its planned start simply starts on the
  //    occupancy it already holds. Only churn drops the plan
  //    (drop_plan()), and the next decision here re-solves the window.
  //  * Decision-only schedulers commit the jobs they start at now straight
  //    onto the profile and leave every other job unscheduled. A later
  //    start would be capacity no completion ever returns, so it is
  //    rejected.
  void plan_incremental(Time now, std::size_t k) {
    if (append_replan_) {
      const std::size_t planned = waiting_.planned();
      RESCHED_CHECK_MSG(planned <= k, "plan outlived a queue shrink");
      if (planned < k) append_suffix(now, planned, k);
      if (waiting_.earliest_start() == now) waiting_.collect_starts(now, head_);
      return;
    }
    const Schedule plan = scheduler_.replan(ReplanRequest{
        free_, fill_window(0, k), m_, now, now, &decision_arena_});
    result_.suffix_jobs_replanned += k;
    for (std::size_t j = 0; j < k; ++j) {
      const auto id = static_cast<JobId>(j);
      if (!plan.is_scheduled(id)) continue;
      RESCHED_CHECK_MSG(plan.start(id) == now,
                        "decision-only replan scheduled a job after now");
      head_.push_back(j);
    }
  }

  // Oracle mode: a full re-solve per decision on the scratch path. An
  // append-only plan must match it job by job -- with a kept plan the
  // strongest form of the append-equivalence claim, since the prefix
  // starts were computed at an earlier instant and must still match a
  // from-scratch solve at this one. A decision-only scheduler must start
  // exactly the jobs the re-solve starts at 0.
  void verify_against_scratch(Time now, std::size_t k) {
    const Schedule oracle = plan_scratch(now, k);
    ++result_.decisions_scratch;
    if (append_replan_) {
      for (std::size_t j = 0; j < k; ++j)
        RESCHED_CHECK_MSG(
            waiting_[j].start ==
                checked_add(oracle.start(static_cast<JobId>(j)), now),
            "incremental replan diverged from the full re-solve oracle");
      return;
    }
    std::size_t matched = 0;
    for (std::size_t j = 0; j < k; ++j) {
      if (oracle.start(static_cast<JobId>(j)) != 0) continue;
      RESCHED_CHECK_MSG(matched < head_.size() && head_[matched] == j,
                        "decision-only replan started other jobs than the "
                        "full re-solve oracle");
      ++matched;
    }
    RESCHED_CHECK_MSG(matched == head_.size(),
                      "decision-only replan started other jobs than the "
                      "full re-solve oracle");
  }

  // Scratch path: translate the live state into a fresh Instance relative
  // to now (running jobs and churn windows as reservations) and full-solve.
  Schedule plan_scratch(Time now, std::size_t k) {
    // resched-lint: hot-path-alloc-audited(scratch full-solve, non-incremental schedulers only)
    std::vector<Job> window;
    window.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      const ServiceJob& job = jobs_[waiting_[j].index];
      window.push_back(Job{static_cast<JobId>(j), job.q, job.p, 0, ""});
    }
    // resched-lint: hot-path-alloc-audited(scratch full-solve, non-incremental schedulers only)
    std::vector<Reservation> held;
    held.reserve(running_.size() + windows_.size());
    ReservationId rid = 0;
    // Running jobs in ascending arrival index, from a sorted copy of the
    // heap.
    running_by_index_.assign(running_.begin(), running_.end());
    std::sort(running_by_index_.begin(), running_by_index_.end(),
              [](const RunningRec& a, const RunningRec& b) {
                return a.index < b.index;
              });
    for (const RunningRec& rec : running_by_index_) {
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
    const Time now = now_;
    if (waiting_.empty()) {
      // Idle-time compaction: when one is due (or due soon -- half the
      // interval, so an arrival landing just past the deadline cannot
      // force it next to a timed decision) and there is nothing to plan,
      // compacting here costs no decision anything. Under sustained
      // pressure the queue never empties and settle() compacts instead.
      if (use_replan_ && result_.decisions_incremental > 0 &&
          compact_due(now, config_.compact_interval / 2))
        compact_now(now);
      return;
    }
    // Same-tick completion drain: if a running job ends at this exact tick
    // but has not completed yet, defer -- its completion re-dispatches with
    // the processors truly free. This removes both the phantom one-tick
    // reservation and any transient over-busy planning. The heap's front is
    // the earliest end, and no end lies behind the clock.
    if (!running_.empty() && running_.front().end == now) {
      ++result_.deferred_dispatches;
      return;
    }
    // Scope reset: everything the previous decision bump-allocated is dead
    // by contract (ReplanRequest::scratch), so the arena rewinds to empty
    // while keeping its chunks -- steady-state decisions reuse warm memory.
    decision_arena_.reset();
    // Nothing inside a decision opens or closes the measure window, so it
    // is read once; outside it the decision records nothing.
    const bool measured = in_measure();
    const bool time_it = measured && config_.record_wall_latency;
    const std::uint64_t allocs_begin = measured ? alloc_count() : 0;
    const WallClock::time_point wall_begin =
        time_it ? WallClock::now() : WallClock::time_point{};

    const std::size_t k = std::min(waiting_.size(), config_.dispatch_window);
    purge_windows(now);

    head_.clear();  // window positions starting now
    if (use_replan_) {
      plan_incremental(now, k);
      ++result_.decisions_incremental;
      if (config_.verify_incremental) verify_against_scratch(now, k);
    } else {
      const Schedule plan = plan_scratch(now, k);
      ++result_.decisions_scratch;
      for (std::size_t j = 0; j < k; ++j)
        if (plan.start(static_cast<JobId>(j)) == 0) head_.push_back(j);
    }
    ++result_.decisions;

    // Starts go last position first: that order fixes the completions'
    // seq, hence the order of equal-tick completions. The started jobs then
    // leave the queue, and with it the plan, in one pass. Their occupancy
    // stays committed (see start_job), so the remaining starts are
    // untouched -- a re-solve of the remaining queue sees the identical
    // profile.
    for (auto pos = head_.rbegin(); pos != head_.rend(); ++pos)
      start_job(waiting_[*pos].index);
    waiting_.remove(head_);

    if (measured) {
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
  // output is complete once the heads have started; compacting dead
  // history only prepares the profile for the NEXT decision, so it runs
  // after the latency sample (deferred reclamation -- respond first, clean
  // up before the next event). Compaction touches only history behind the
  // clock, so an append-only plan (all of it at or after now) stays as it
  // is.
  void settle(Time now) {
    if (!use_replan_) return;
    // Append-only schedulers compact at the deadline. Decision-only ones
    // compact as soon as any completion has stranded dead history (each
    // completion leaves ~2 dead segments, and every live one drags the
    // next decision's scans and splices; the compaction itself is a single
    // untimed splice, far cheaper).
    if ((!append_replan_ && completions_since_compact_ > 0) ||
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
      result_.wait_ticks.record(checked_sub(now_, job.arrival));
    const Time completion = checked_add(now_, job.p);
    running_.push_back(
        RunningRec{completion, events_.take_seq(), index, job.q});
    std::push_heap(running_.begin(), running_.end(), ends_later);
    // Occupancy [now, completion) leaves the profile by natural expiry, so
    // a normal completion needs no mutation at all. On the incremental path
    // replan() already committed it permanently: an append-only plan when
    // the job was planned, a decision-only pass just now. The scratch path
    // with churn or windows applies the start here.
    if (!use_replan_ && maintain_profile_)
      free_.adjust_capacity(now_, completion,
                            -static_cast<std::int64_t>(job.q));
  }

  const Scheduler& scheduler_;
  const ServiceConfig& config_;
  const ProcCount m_;
  const bool use_replan_;
  // FCFS-fold schedulers (append_only_replan) keep their plan across
  // decisions; pure-arrival dispatches then plan only the new suffix.
  const bool append_replan_;
  // The persistent profile is maintained whenever the incremental path or
  // churn needs it; pure scratch steps skip the bookkeeping entirely.
  const bool maintain_profile_;
  LoadGen gen_;
  // The step's clock and pending events. Arrivals and churn each keep one
  // event in flight, so their drawn specs wait in the members below.
  Time now_ = 0;
  EventQueue<Event> events_;
  ArrivalSpec pending_arrival_;
  ChurnEvent pending_churn_;
  // Persistent absolute-time capacity. Every commit on it is permanent.
  FreeProfile free_;
  std::optional<ChurnGen> churn_;
  std::vector<ChurnWindow> windows_;  // active/future availability drops
  std::vector<ServiceJob> jobs_;  // indexed by arrival order
  // Waiting jobs in arrival order; an append-capable scheduler's plan rides
  // on its prefix, each start committed on free_. It grows only on
  // arrival, so a decision never reallocates it.
  WaitingQueue waiting_;
  std::vector<RunningRec> running_;  // min-heap on (end, seq)
  // Latest end of a job canceled while running (sim_end counts it).
  Time canceled_end_ = 0;
  ProcCount busy_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t measured_done_ = 0;
  std::uint64_t measure_canceled_ = 0;
  Time measure_begin_ = -1;
  Time measure_end_ = 0;
  Time last_compact_ = 0;
  std::uint64_t completions_since_compact_ = 0;
  // Decision-scoped bump allocator handed to the scheduler through
  // ReplanRequest::scratch; reset (chunks kept) at each dispatch entry.
  Arena decision_arena_;
  // Per-decision scratch buffers: cleared and refilled each decision, the
  // high-water capacity is reused so the timed window stays allocation-free.
  std::vector<std::size_t> head_;
  std::vector<Job> window_jobs_;
  std::vector<RunningRec> running_by_index_;  // scratch path's sorted copy
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
