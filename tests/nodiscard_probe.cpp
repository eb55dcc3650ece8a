// Compile-failure probe for the nodiscard_is_enforced test: discards a
// Status and a Result<int>. Result and Status are [[nodiscard]] at class
// level and the tree builds with -Werror=unused-result, so this file must
// NOT compile; the test passes only on the compiler's unused-result errors.
// The helpers carry no attribute of their own — the class-level one is
// what has to fire.
#include "util/result.hpp"

namespace vgbl {

Status probe_status() { return Status::ok_status(); }
Result<int> probe_result() { return 7; }

void probe_discards() {
  probe_status();
  probe_result();
}

}  // namespace vgbl
