// Fixture: a session layer compiling its own copy of the bundle's rules —
// must fire rulebook-per-bundle under src/runtime, src/sim, src/core,
// src/persist and src/rewards. Sessions dispatch against the one book
// load_bundle built (GameBundle::rules).
#include "author/bundle.hpp"

namespace vgbl {

class PrivateBookSession {
 public:
  explicit PrivateBookSession(const GameBundle& bundle)
      : book_(bundle.rules.rules()) {}

 private:
  RuleBook book_;
};

}  // namespace vgbl
