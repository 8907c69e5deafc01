#include "exact/bnb.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "bounds/lower_bounds.hpp"
#include "core/arena.hpp"
#include "core/profile_allocator.hpp"
#include "util/checked.hpp"
#include "util/require.hpp"

namespace resched {

namespace {

struct SearchState {
  const Instance* instance = nullptr;
  FreeProfile free{StepProfile(0)};
  std::vector<bool> placed;
  std::vector<Time> starts;
  Time current_makespan = 0;

  Time best = kTimeInfinity;
  std::vector<Time> best_starts;
  std::uint64_t nodes = 0;
  std::uint64_t node_limit = 0;
  bool aborted = false;

  std::unordered_set<std::string> visited;

  // DFS-scoped scratch: each node's candidate list lives between a mark()
  // and the matching rewind(), so the whole search reuses a few warm chunks
  // instead of one heap vector per node. The LIFO marker discipline is the
  // recursion itself.
  Arena scratch;
};

// Lower bound for the remaining jobs against the current partial profile.
Time node_lower_bound(SearchState& state) {
  const Instance& instance = *state.instance;
  Time bound = state.current_makespan;
  std::int64_t remaining_work = 0;
  Time earliest_remaining_release = kTimeInfinity;
  for (const Job& job : instance.jobs()) {
    if (state.placed[static_cast<std::size_t>(job.id)]) continue;
    const Time start = state.free.earliest_fit(job.release, job.q, job.p);
    bound = std::max(bound, checked_add(start, job.p));
    remaining_work = checked_add(remaining_work, job.area());
    earliest_remaining_release =
        std::min(earliest_remaining_release, job.release);
  }
  if (remaining_work > 0) {
    bound = std::max(bound, state.free.profile().time_to_accumulate(
                                earliest_remaining_release, remaining_work));
  }
  return bound;
}

// State signature for memoisation: remaining set + committed profile.
std::string state_key(const SearchState& state) {
  std::string key;
  key.reserve(state.placed.size() + 64);
  for (const bool placed : state.placed) key += placed ? '1' : '0';
  key += '|';
  for (const auto& segment : state.free.profile().segments()) {
    key += std::to_string(segment.start);
    key += ':';
    key += std::to_string(segment.value);
    key += ';';
  }
  return key;
}

void dfs(SearchState& state) {
  if (state.aborted) return;
  if (++state.nodes > state.node_limit) {
    state.aborted = true;
    return;
  }

  const Instance& instance = *state.instance;
  const std::size_t n = instance.n();

  bool all_placed = true;
  for (std::size_t i = 0; i < n; ++i)
    if (!state.placed[i]) {
      all_placed = false;
      break;
    }
  if (all_placed) {
    if (state.current_makespan < state.best) {
      state.best = state.current_makespan;
      state.best_starts = state.starts;
    }
    return;
  }

  if (node_lower_bound(state) >= state.best) return;  // prune

  if (!state.visited.insert(state_key(state)).second) return;  // seen

  // Branch on one representative per identical (q, p, release) class.
  const Arena::Marker frame = state.scratch.mark();
  ScratchVec<JobId> candidates{ArenaAlloc<JobId>(&state.scratch)};
  for (std::size_t i = 0; i < n; ++i) {
    if (state.placed[i]) continue;
    const Job& job = instance.jobs()[i];
    bool duplicate = false;
    for (const JobId earlier : candidates) {
      const Job& other = instance.job(earlier);
      if (other.q == job.q && other.p == job.p &&
          other.release == job.release) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) candidates.push_back(static_cast<JobId>(i));
  }

  for (const JobId id : candidates) {
    const Job& job = instance.job(id);
    const Time start = state.free.earliest_fit(job.release, job.q, job.p);
    const Time completion = checked_add(start, job.p);
    if (completion >= state.best) continue;  // placing it can't improve

    // The backtrack below gives the capacity back by value, which restores
    // the profile bit for bit (a canonical profile is unique for its
    // function).
    state.free.commit_fitted(start, job.q, job.p);
    state.placed[static_cast<std::size_t>(id)] = true;
    state.starts[static_cast<std::size_t>(id)] = start;
    const Time saved_makespan = state.current_makespan;
    state.current_makespan = std::max(state.current_makespan, completion);

    dfs(state);

    state.current_makespan = saved_makespan;
    state.placed[static_cast<std::size_t>(id)] = false;
    state.free.adjust_capacity(start, completion, job.q);
    if (state.aborted) break;
  }
  state.scratch.rewind(frame);
}

}  // namespace

BnbResult branch_and_bound(const Instance& instance,
                           const BnbOptions& options) {
  BnbResult result{0, Schedule(instance.n()), 0, false};
  if (instance.n() == 0) {
    result.proven = true;
    return result;
  }

  SearchState state;
  state.instance = &instance;
  state.free = FreeProfile::for_instance(instance);
  state.placed.assign(instance.n(), false);
  state.starts.assign(instance.n(), 0);
  state.node_limit = options.node_limit;
  if (options.upper_bound_hint > 0)
    state.best = checked_add(options.upper_bound_hint, 1);

  dfs(state);

  result.nodes = state.nodes;
  result.proven = !state.aborted;
  if (state.best >= kTimeInfinity) {
    // Exhausted the node limit before completing even one schedule (or an
    // upper-bound hint below the true optimum excluded everything): report
    // an unproven empty result rather than a bogus optimum.
    RESCHED_CHECK_MSG(!result.proven || options.upper_bound_hint > 0,
                      "complete search found no schedule for a feasible "
                      "instance");
    result.proven = false;
    return result;
  }
  result.optimal = state.best;
  for (std::size_t i = 0; i < instance.n(); ++i)
    result.schedule.set_start(static_cast<JobId>(i), state.best_starts[i]);
  return result;
}

Time optimal_makespan(const Instance& instance, const BnbOptions& options) {
  const BnbResult result = branch_and_bound(instance, options);
  RESCHED_REQUIRE_MSG(result.proven,
                      "branch and bound hit its node limit; raise "
                      "BnbOptions::node_limit or shrink the instance");
  return result.optimal;
}

}  // namespace resched
