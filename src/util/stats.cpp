#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace resched {

void OnlineStats::add(double value) noexcept {
  ++count_;
  sum_ += value;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

namespace {
// Closest-rank interpolation over an already sorted sample set.
double sorted_percentile(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  if (lo == hi) return sorted[lo];
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}
}  // namespace

double percentile(std::vector<double> values, double q) {
  const double qs[] = {q};
  return percentiles(std::move(values), qs)[0];
}

std::vector<double> percentiles(std::vector<double> values,
                                std::span<const double> qs) {
  RESCHED_REQUIRE(!values.empty());
  for (const double q : qs) RESCHED_REQUIRE(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  std::vector<double> results;
  results.reserve(qs.size());
  for (const double q : qs) results.push_back(sorted_percentile(values, q));
  return results;
}

}  // namespace resched
