#include "util/record_log.hpp"

#include <filesystem>
#include <utility>

#include "util/crc32.hpp"
#include "util/fileio.hpp"

namespace vgbl {
namespace {

constexpr size_t kHeaderSize = 12;

Bytes header(const RecordFormat& format) {
  ByteWriter w(kHeaderSize);
  w.put_u32(format.magic);
  w.put_u16(format.version);
  w.put_u16(0);  // reserved
  w.put_u32(crc32(w.bytes()));
  return std::move(w).take();
}

Status check_header(std::span<const u8> data, const RecordFormat& format) {
  const std::string name(format.name);
  ByteReader r(data);
  auto magic = r.u32_();
  if (!magic.ok() || magic.value() != format.magic) {
    return corrupt_data("not a " + name + " (bad magic)");
  }
  auto version = r.u16_();
  auto reserved = r.u16_();
  auto header_crc = r.u32_();
  if (!version.ok() || !reserved.ok() || !header_crc.ok()) {
    return corrupt_data("truncated " + name + " header");
  }
  if (header_crc.value() != crc32(data.subspan(0, 8))) {
    return corrupt_data(name + " header crc mismatch");
  }
  if (version.value() != format.version) {
    return unsupported(name + " version " + std::to_string(version.value()) +
                       " (reader supports " + std::to_string(format.version) +
                       ")");
  }
  return {};
}

}  // namespace

Bytes seal_file(const RecordFormat& format, std::span<const u8> body) {
  ByteWriter out(kHeaderSize + body.size() + 4);
  const Bytes head = header(format);
  out.put_raw(head.data(), head.size());
  out.put_raw(body.data(), body.size());
  out.put_u32(crc32(body));
  return std::move(out).take();
}

Result<std::span<const u8>> sealed_file_body(std::span<const u8> data,
                                             const RecordFormat& format) {
  if (auto st = check_header(data, format); !st.ok()) return st.error();
  const std::string name(format.name);
  if (data.size() < kHeaderSize + 4) {
    return corrupt_data("truncated " + name + " body");
  }
  const auto body = data.subspan(kHeaderSize, data.size() - kHeaderSize - 4);
  ByteReader trailer(data.subspan(data.size() - 4));
  auto stored_crc = trailer.u32_();
  if (!stored_crc.ok() || stored_crc.value() != crc32(body)) {
    return corrupt_data(name + " body crc mismatch");
  }
  return body;
}

Result<ParsedRecordLog> parse_record_log(std::span<const u8> data,
                                         const RecordFormat& format) {
  if (auto st = check_header(data, format); !st.ok()) return st.error();
  ParsedRecordLog out;
  out.valid_bytes = kHeaderSize;
  ByteReader r(data.subspan(kHeaderSize));
  while (!r.at_end()) {
    const size_t offset = kHeaderSize + r.position();
    auto kind = r.u8_();
    auto size = r.u32_();
    if (!kind.ok() || !size.ok()) {
      out.torn_tail = true;  // the record's own header was cut short
      break;
    }
    auto payload = r.view(size.value());
    auto stored_crc = r.u32_();
    if (!payload.ok() || !stored_crc.ok()) {
      out.torn_tail = true;  // payload or trailer cut short: crash tail
      break;
    }
    if (stored_crc.value() != crc32(payload.value())) {
      return corrupt_data(std::string(format.name) + " record at byte " +
                          std::to_string(offset) + " crc mismatch");
    }
    if (kind.value() == kBarrierRecord &&
        !ByteReader(payload.value()).varint().ok()) {
      return corrupt_data(std::string(format.name) + " barrier at byte " +
                          std::to_string(offset) + " is malformed");
    }
    out.records.push_back({kind.value(), payload.value(), offset});
    out.valid_bytes = kHeaderSize + r.position();
  }
  return out;
}

std::optional<size_t> last_barrier(std::span<const LogRecord> records,
                                   u64 sequence) {
  for (size_t i = records.size(); i-- > 0;) {
    if (records[i].kind != kBarrierRecord) continue;
    auto barrier_sequence = ByteReader(records[i].payload).varint();
    if (barrier_sequence.ok() && barrier_sequence.value() == sequence) {
      return i;
    }
  }
  return std::nullopt;
}

// --- RecordLog --------------------------------------------------------------

Result<RecordLog> RecordLog::open_append(const std::string& path, u64 size) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return file_error("cannot open record log", path);
  return RecordLog(f, path, size);
}

Result<RecordLog> RecordLog::create(const std::string& path,
                                    const RecordFormat& format) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return file_error("cannot create record log", path);
  const Bytes head = header(format);
  const bool wrote =
      std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote) return file_error("cannot write record log header", path);
  // Keep the live handle in append mode: every record then lands at the
  // file's current end even if another handle compacts (truncates) the
  // log in between — two live writers for the same file can interleave
  // records, but a stale buffered offset can never punch a hole in it.
  return open_append(path, head.size());
}

Result<RecordLog> RecordLog::open_existing(const std::string& path,
                                           const ParsedRecordLog& parsed) {
  if (parsed.torn_tail) {
    std::error_code ec;
    std::filesystem::resize_file(path, parsed.valid_bytes, ec);
    if (ec) {
      return io_error("cannot trim torn record log tail '" + path +
                      "': " + ec.message());
    }
  }
  return open_append(path, parsed.valid_bytes);
}

Status RecordLog::append(u8 kind, std::span<const u8> payload) {
  if (file_ == nullptr) {
    return failed_precondition("record log was moved-from or closed");
  }
  ByteWriter frame(payload.size() + 9);
  frame.put_u8(kind);
  frame.put_u32(static_cast<u32>(payload.size()));
  frame.put_raw(payload.data(), payload.size());
  frame.put_u32(crc32(payload));
  const Bytes bytes = std::move(frame).take();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
          bytes.size() ||
      std::fflush(file_.get()) != 0) {
    return file_error("cannot append to record log", path_);
  }
  bytes_written_ += bytes.size();
  return {};
}

}  // namespace vgbl
