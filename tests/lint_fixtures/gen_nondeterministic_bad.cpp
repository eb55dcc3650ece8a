// Fixture: ambient randomness + wall-clock inside the course generator —
// must fire determinism-random and determinism-wallclock (and only those:
// src/gen is in the dirs of the plain determinism rules).
#include <chrono>
#include <random>

namespace vgbl::gen {

unsigned bad_course_seed() {
  std::random_device entropy;
  std::mt19937 twister(entropy());
  return twister();
}

long long bad_generation_stamp() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

}  // namespace vgbl::gen
