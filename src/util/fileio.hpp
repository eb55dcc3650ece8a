// Shared binary-file helpers for the durable stores (src/persist session
// store, src/rewards badge store) and the record log they journal through
// (util/record_log.hpp). They live in util so stores outside src/persist
// share the atomic-write discipline without depending on the session-store
// stack.
#pragma once

#include <span>
#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl {

/// kIoError naming the failed operation, the path and errno's text.
[[nodiscard]] Error file_error(const std::string& what,
                               const std::string& path);

/// Reads a whole file. kNotFound when absent, kIoError on read failure.
Result<Bytes> read_binary_file(const std::string& path);

/// Writes `data` atomically: to `path + ".tmp"`, then rename over `path`.
/// Readers therefore never observe a half-written file.
Status write_binary_file_atomic(const std::string& path,
                                std::span<const u8> data);

}  // namespace vgbl
