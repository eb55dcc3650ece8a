#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace e2ebench
