// Fixture: a store writing its own file framing — must fire
// durable-io-in-util under src/persist and src/rewards. Durable writes go
// through util/fileio.hpp and util/record_log.hpp instead.
#include <cstdio>
#include <filesystem>
#include <string>

namespace vgbl {

bool append_frame(const std::string& path, const unsigned char* data,
                  std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(data, 1, size, f) == size && std::fflush(f) == 0;
  std::fclose(f);
  return wrote;
}

void trim_tail(const std::string& path, std::uintmax_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
}

}  // namespace vgbl
