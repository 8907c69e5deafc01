// FreeProfile: the schedulers' mutable view of remaining capacity.
//
// Starts from the instance's availability m(t) = m - U(t) and is decremented
// as jobs are committed. All list/backfilling algorithms are expressed with
// three queries:
//
//   fits_at(t, q, p)        -- can a (q, p) job run in [t, t+p)?
//   earliest_fit(t0, q, p)  -- first start >= t0 where it can,
//   commit_fitted(t, q, p)  -- allocate it there.
//
// Candidate-start lemma (used by earliest_fit and by LSRC's event loop):
// for fixed committed capacity, the set {t : fits_at(t, q, p)} is a finite
// union of left-closed intervals whose left endpoints are either t0 or
// *capacity-increase breakpoints* of the profile. Proof sketch: fits_at
// fails iff the window [t, t+p) meets a deficient segment (capacity < q);
// sliding t right past a deficient segment first becomes possible exactly at
// the segment's right edge, which is a breakpoint where capacity rises.
// Hence earliest_fit only ever returns t0 or an increase breakpoint, and a
// scheduler that re-examines its queue at capacity-increase events (job
// completions, reservation ends) never misses a feasible start. It is also
// why StepProfile::first_fit, which earliest_fit delegates to, may jump
// from a dip straight to the end of its deficient run.
//
// ## Tentative commits (transactional allocation)
//
// Branch-and-bound (exact/bnb.cpp) is speculative: place a job, recurse,
// and on backtrack take the placement back. commit_tentative() makes that
// pattern first-class: it subtracts the job and returns an opaque
// CommitToken whose undo record (StepProfile's undo log) reverts the
// allocation in O(touched segments) via rollback(token) -- no re-run of
// add's split/coalesce path, so arbitrarily deep or long DFS probe loops
// pay only for the segments they touch. Tokens are strictly nested (LIFO),
// which is exactly the shape depth-first backtracking produces; rolling back
// any token but the newest open one trips RESCHED_CHECK. (EASY's backfill test needs no tentative
// commit: it reads the uncommitted profile, see algorithms/easy_bf.cpp.)
//
// Complexity: fits_at is an O(window) scan that stops at the first deficient
// segment. earliest_fit is one forward walk over the profile
// (StepProfile::first_fit) that visits each segment between t0 and the
// answer's window end once, O(1) per segment.
//
// ## Versioned plans (checkpoint / rewind -- the incremental-replan substrate)
//
// A resident service re-plans on every arrival/completion event. Rebuilding
// the capacity profile from scratch per decision is the dominant cost; the
// alternative is to keep ONE long-lived FreeProfile (absolute time) and let
// each plan run directly on it, then unwind the plan's speculative
// allocations before the next event. Three pieces make that safe:
//
//   checkpoint()            -- O(1) snapshot of the plan frontier: the frame
//                              stack depth, the commit serial and the
//                              underlying StepProfile::version().
//   set_retain_accepted(on) -- plan-recording mode: commit_fitted opens a
//                              recorded frame instead of mutating
//                              unrecorded. Every mutation a scheduler makes
//                              while planning is therefore on the frame
//                              stack.
//   rewind_to(checkpoint)   -- rolls the frame stack back to the checkpoint
//                              depth, newest-first, in O(touched) per frame:
//                              the whole plan suffix is invalidated without
//                              rebuilding the profile. Verifies through the
//                              profile version that nothing but frames
//                              mutated since the checkpoint.
//
// Permanent world changes (a job actually starting, churn: cancellations
// freeing capacity, availability drops, reservation moves) go through
// adjust_capacity(), which requires an empty frame stack: plans are always
// rewound before the world moves, so a checkpoint can never span a
// permanent mutation (rewind_to checks this and trips loudly).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/step_profile.hpp"

namespace resched {

class FreeProfile {
 public:
  // Opaque handle to one open tentative commit. Move-only; a
  // default-constructed or rolled-back token is dead. Every live token must
  // be rolled back before any older token -- destroying one live leaves its
  // undo frame open and the next rollback will trip the LIFO check.
  class CommitToken {
   public:
    CommitToken() = default;
    CommitToken(CommitToken&& other) noexcept
        : serial_(other.serial_), live_(other.live_) {
      other.live_ = false;
    }
    CommitToken& operator=(CommitToken&& other) noexcept {
      serial_ = other.serial_;
      live_ = other.live_;
      other.live_ = false;
      return *this;
    }
    CommitToken(const CommitToken&) = delete;
    CommitToken& operator=(const CommitToken&) = delete;
    ~CommitToken() = default;

    [[nodiscard]] bool live() const noexcept { return live_; }

   private:
    friend class FreeProfile;
    explicit CommitToken(std::uint64_t serial) noexcept
        : serial_(serial), live_(true) {}
    std::uint64_t serial_ = 0;
    bool live_ = false;
  };

  // View over an explicit capacity profile (must be non-negative).
  explicit FreeProfile(StepProfile free_capacity);

  // Capacity view of an instance before any job is placed.
  [[nodiscard]] static FreeProfile for_instance(const Instance& instance);

  [[nodiscard]] ProcCount capacity_at(Time t) const;

  // True iff min capacity over [t, t+p) is >= q. p > 0, q >= 1, t >= 0.
  [[nodiscard]] bool fits_at(Time t, ProcCount q, Time p) const;

  // Smallest t >= t0 with fits_at(t, q, p). Always terminates: requires
  // q <= final free capacity (capacity after every reservation and committed
  // job has ended), which holds for any valid job of the instance.
  [[nodiscard]] Time earliest_fit(Time t0, ProcCount q, Time p) const;

  // Subtracts q over [t, t+p) for callers whose t was just produced by
  // earliest_fit (or an explicit fits_at): the precondition fits_at(t, q, p)
  // holds by construction, so its recheck is a Debug-only RESCHED_ASSERT.
  // This is the schedulers' hot placement path; misuse is still caught
  // downstream by Schedule::validate and the campaign oracle. Permanent,
  // except in plan-recording mode (see set_retain_accepted).
  void commit_fitted(Time t, ProcCount q, Time p);

  // Tentatively subtracts q over [t, t+p) and opens an undo frame; the
  // returned token reverts it via rollback(). Same
  // by-construction precondition (and Debug-only recheck) as
  // commit_fitted. O(touched) to record; the frame's buffers are recycled
  // across probes, so a reject/retry loop stops allocating after warm-up.
  [[nodiscard]] CommitToken commit_tentative(Time t, ProcCount q, Time p);

  // Reverts the newest open tentative commit, which must be the one the
  // token names (RESCHED_CHECK otherwise). O(touched segments).
  void rollback(CommitToken&& token);

  // O(1) snapshot of the plan frontier; see the header notes. A checkpoint
  // taken on one FreeProfile must only be passed back to that object.
  struct Checkpoint {
    std::uint64_t serial = 0;    // next commit serial at checkpoint time
    std::size_t depth = 0;       // frame-stack depth at checkpoint time
    std::uint64_t version = 0;   // StepProfile::version() at checkpoint time
    std::uint64_t permanent = 0; // permanent mutations seen at checkpoint time
  };
  [[nodiscard]] Checkpoint checkpoint() const noexcept {
    return Checkpoint{next_serial_, open_.size(), profile_.version(),
                      permanent_mutations_};
  }

  // Rolls the frame stack back to the checkpoint's depth, newest-first
  // (retained plan frames included), leaving the profile bit-identical
  // to its checkpoint state. Trips RESCHED_CHECK if any permanent mutation
  // (adjust_capacity, non-retained commit, compact_history) happened since
  // the checkpoint -- those cannot be rewound -- or if the stack is already
  // below the checkpoint depth.
  void rewind_to(const Checkpoint& checkpoint);

  // Plan-recording mode: while on, commit_fitted() opens a recorded frame
  // (undo intact) instead of mutating permanently, so rewind_to can unwind
  // a whole plan. Toggling requires an empty stack.
  void set_retain_accepted(bool on);
  [[nodiscard]] bool retain_accepted() const noexcept {
    return retain_accepted_;
  }

  // Permanent capacity mutation (a job starting for real; churn events:
  // cancellation refunds, availability drops, reservation moves). delta < 0
  // withdraws capacity over [from, to), delta > 0 restores it. Requires an
  // empty frame stack -- plans must be rewound before the world moves --
  // and, for withdrawals, that the window can afford it (min capacity over
  // the window stays >= 0).
  void adjust_capacity(Time from, Time to, std::int64_t delta);

  // Forwards StepProfile::compact_before: coalesces dead history strictly
  // before t (the service loop's monotone clock). Requires an empty frame
  // stack. Returns the number of segments removed.
  std::size_t compact_history(Time t);

  // Number of open frames: live tentative commits plus, in plan-recording
  // mode, the plan's retained commit_fitted frames.
  [[nodiscard]] std::size_t open_commits() const noexcept {
    return open_.size();
  }

  // Heap blocks attributable to this view: the segment store's spills plus
  // every frame the pool failed to recycle (frame_misses). A steady-state
  // probe/plan loop on a warmed-up profile must keep this flat -- the
  // bench-smoke budget gate and the fuzz suites assert exactly that.
  [[nodiscard]] std::uint64_t alloc_count() const noexcept {
    return profile_.alloc_count() + frame_misses_;
  }

  // Frames push_frame constructed from scratch because the recycle pool was
  // empty (diagnostic; the adaptive pool keeps this at the warm-up cost:
  // one per unit of peak frame-stack depth).
  [[nodiscard]] std::uint64_t frame_misses() const noexcept {
    return frame_misses_;
  }

  // Smallest breakpoint > t, or kTimeInfinity (event-driven scheduling).
  [[nodiscard]] Time next_change_after(Time t) const;

  [[nodiscard]] const StepProfile& profile() const noexcept {
    return profile_;
  }

 private:
  // One open frame: the serial its token names plus the undo record that
  // reverts it.
  struct OpenCommit {
    std::uint64_t serial = 0;
    StepProfile::Undo undo;
  };

  // Pops the top frame, rolling the profile back and recycling its undo
  // buffer.
  void pop_frame();
  // Opens a recorded frame for a validated allocation; shared by
  // commit_tentative and retain-mode commit_fitted.
  void push_frame(Time t, ProcCount q, Time p);

  StepProfile profile_;
  std::vector<OpenCommit> open_;
  // Retired frames, kept whole (undo buffer included) so probe loops and
  // plan/rewind cycles stop allocating once warm. Capped adaptively at
  // max(kMinPoolFrames, peak open-stack depth): a full rewind of the
  // deepest plan this profile has ever carried can recycle every frame,
  // while a shallow prober never hoards more than a handful.
  std::vector<OpenCommit> frame_pool_;
  // High-water mark of open_.size(); sets the pool cap.
  std::size_t open_high_water_ = 0;
  // push_frame pool misses (see frame_misses()).
  std::uint64_t frame_misses_ = 0;
  std::uint64_t next_serial_ = 0;
  // Count of non-rewindable mutations (adjust_capacity, non-retained
  // commits, compact_history); rewind_to refuses to cross one.
  std::uint64_t permanent_mutations_ = 0;
  bool retain_accepted_ = false;
};

}  // namespace resched
