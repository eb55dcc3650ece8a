// Order statistics for benchmark samples.
#pragma once

#include <utility>
#include <vector>

namespace e2ebench {

/// Percentile `q` in [0, 100] by linear interpolation between the two
/// nearest ranks (rank q/100 * (n - 1), 0-based); 0 for no samples. Takes
/// the samples by value because it sorts them.
double percentile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

}  // namespace e2ebench
