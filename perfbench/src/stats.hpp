// Sample statistics the benchmark reports: nearest-rank percentiles and the
// "at least ten samples beyond" rule that decides which tail percentile a
// sample set can support.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `pct` (1..100) in `n` samples:
/// max(1, ceil(pct * n / 100)), computed in integers so p95 of 200 samples
/// is rank 190 exactly.
std::size_t nearest_rank(std::size_t n, int pct);

/// Nearest-rank percentile of `samples` (copied and sorted).  Returns 0
/// for an empty set.
double percentile(std::vector<double> samples, int pct);

/// True when at least `min_beyond` of `n` samples lie above the
/// nearest-rank position of `pct` — the condition for reporting that
/// percentile as a tail.
bool tail_supported(std::size_t n, int pct, std::size_t min_beyond = 10);

double mean(const std::vector<double>& samples);

}  // namespace perfbench
