// Write-ahead record log: the one on-disk format behind every durable
// journal (the session journal in src/persist, the badge journal in
// src/rewards). A log is a sealed header followed by CRC-framed records:
//
//   header  magic u32 | version u16 | reserved u16 | crc32(header)
//   record  kind u8 | payload_size u32 | payload | crc32(payload)
//
// The same header seals whole-file snapshots (badges.snap):
//
//   sealed file  header | body | crc32(body)
//
// The magic and version belong to the store; the kinds and payloads are
// the store's codec. Kind 2 is reserved for *barrier* records, whose
// payload starts with a snapshot sequence as a varint: a checkpoint
// compacts the log to one barrier, and recovery replays only what follows
// the last barrier matching the loaded snapshot.
//
// Failure semantics distinguish a *torn tail* from *corruption*: a record
// cut short by the end of the file is the expected shape of a crash during
// append, so parsing stops there and reports it (writers trim it before
// appending). A record that is fully present but fails its CRC means the
// file was damaged after the fact: kCorruptData. So are a bad magic, a
// truncated header and a header CRC mismatch; another version is
// kUnsupported.
#pragma once

#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace vgbl {

/// Identifies one store's file format. `name` prefixes error messages.
struct RecordFormat {
  u32 magic = 0;
  u16 version = 0;
  std::string_view name;
};

/// Record kind of a barrier in every log; payload leads with a varint
/// snapshot sequence.
inline constexpr u8 kBarrierRecord = 2;

/// A sealed file holding `body`: header, body, crc32(body).
[[nodiscard]] Bytes seal_file(const RecordFormat& format,
                              std::span<const u8> body);

/// The body of a sealed file, viewing `data`. kCorruptData for a bad
/// header (as parse_record_log), a truncated file or a body CRC mismatch.
Result<std::span<const u8>> sealed_file_body(
    std::span<const u8> data, const RecordFormat& format);

struct LogRecord {
  u8 kind = 0;
  std::span<const u8> payload;  ///< views the parsed bytes
  size_t offset = 0;            ///< byte offset of the record's frame
};

struct ParsedRecordLog {
  std::vector<LogRecord> records;
  /// Byte length of the prefix that parsed cleanly (header included).
  size_t valid_bytes = 0;
  /// True when a record cut short at the end of the data was dropped.
  bool torn_tail = false;
};

/// Parses log bytes. Payloads view `data`, which must outlive the result.
/// A barrier whose payload does not start with a varint is kCorruptData.
Result<ParsedRecordLog> parse_record_log(
    std::span<const u8> data, const RecordFormat& format);

/// Index of the last barrier whose sequence equals `sequence`; nullopt
/// when none does. What "no barrier" means is the caller's replay policy.
[[nodiscard]] std::optional<size_t> last_barrier(
    std::span<const LogRecord> records, u64 sequence);

/// An open log file, appended to with one write + flush per record so the
/// log-before-apply order survives a crash of the process. Not internally
/// synchronised: the owning store serialises appends.
class RecordLog {
 public:
  /// Creates (or truncates) `path` with a fresh header.
  static Result<RecordLog> create(const std::string& path,
                                  const RecordFormat& format);
  /// Opens the existing log at `path`, whose contents parsed as `parsed`,
  /// for appending. A torn tail is trimmed first, so the next record
  /// starts at a clean boundary instead of being glued onto half of one.
  static Result<RecordLog> open_existing(
      const std::string& path, const ParsedRecordLog& parsed);

  /// Appends one framed record and flushes it.
  Status append(u8 kind, std::span<const u8> payload);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] u64 bytes_written() const { return bytes_written_; }

 private:
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  RecordLog(std::FILE* file, std::string path, u64 size)
      : file_(file), path_(std::move(path)), bytes_written_(size) {}
  static Result<RecordLog> open_append(const std::string& path, u64 size);

  std::unique_ptr<std::FILE, Closer> file_;
  std::string path_;
  u64 bytes_written_ = 0;
};

}  // namespace vgbl
