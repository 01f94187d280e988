#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, int pct) {
  const std::size_t p = static_cast<std::size_t>(pct);
  const std::size_t rank = (p * n + 99) / 100;
  return std::max<std::size_t>(1, rank);
}

double percentile(std::vector<double> samples, int pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), pct) - 1];
}

bool tail_supported(std::size_t n, int pct, std::size_t min_beyond) {
  return n > 0 && n - nearest_rank(n, pct) >= min_beyond;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
