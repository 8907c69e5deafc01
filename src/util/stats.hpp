// Streaming and batch summary statistics for experiment harnesses.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace resched {

// Welford's online algorithm: numerically stable single-pass mean/variance.
class OnlineStats {
 public:
  void add(double value) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile with linear interpolation between closest ranks; q in [0, 1].
// Copies and sorts internally (batch use only). Requires non-empty input.
// Asking for several quantiles of one sample set? Use percentiles() below:
// this overload pays a full copy + sort per call.
[[nodiscard]] double percentile(std::vector<double> values, double q);

// All requested quantiles of one sample set for a single sort: returns
// results[i] = percentile of qs[i] (qs need not be sorted). Requires
// non-empty values and every q in [0, 1]. Hot paths with streaming samples
// should prefer the log-bucketed sim/latency_recorder.hpp instead -- this
// still copies the batch once.
[[nodiscard]] std::vector<double> percentiles(std::vector<double> values,
                                              std::span<const double> qs);

}  // namespace resched
