// Write-ahead input journal: the ScriptSteps applied to a session since
// its last snapshot, plus barrier records marking snapshot checkpoints,
// on the shared record-log format (util/record_log.hpp: sealed header,
// CRC-framed records, torn-tail vs corruption semantics). This file is
// the payload codec:
//
//   step     kind 1 | op u8 | object | item | second item | choice varint
//                   | wait_time i64 | point i32 i32
//   barrier  kind 2 | snapshot sequence varint | step count varint
//
// Recovery = load the latest valid snapshot, then replay the journal
// steps that follow the barrier whose sequence matches it (see
// session_store.hpp for the full protocol).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "runtime/script.hpp"
#include "util/bytes.hpp"
#include "util/record_log.hpp"
#include "util/result.hpp"

namespace vgbl {

inline constexpr u32 kJournalMagic = 0x4A534756;  // "VGSJ" little-endian
inline constexpr u16 kJournalVersion = 1;

struct JournalRecord {
  enum class Kind : u8 { kStep = 1, kBarrier = kBarrierRecord };
  Kind kind = Kind::kStep;
  ScriptStep step;            ///< meaningful when kind == kStep
  u64 barrier_sequence = 0;   ///< snapshot sequence, when kind == kBarrier
  u64 barrier_step_count = 0; ///< steps covered by that snapshot
};

/// Appends records to a journal file, flushing after every write so the
/// log-before-apply ordering survives a crash of the process.
///
/// Not internally synchronised, deliberately: a writer is always owned by
/// one PersistedSession and every append runs under that student's store
/// shard (apply_locked/checkpoint_locked, see thread_annotations.hpp), or
/// by a single-threaded caller (tests, CLI). Adding a mutex here would
/// hide lock-discipline bugs the shard annotations now catch.
class JournalWriter {
 public:
  /// Creates (or truncates) `path` and writes a fresh file header.
  static Result<JournalWriter> create(const std::string& path);

  Status append_step(const ScriptStep& step);
  Status append_barrier(u64 snapshot_sequence, u64 step_count);

  [[nodiscard]] const std::string& path() const { return log_.path(); }
  [[nodiscard]] u64 bytes_written() const { return log_.bytes_written(); }

 private:
  explicit JournalWriter(RecordLog log) : log_(std::move(log)) {}
  Status append_record(JournalRecord::Kind kind, const Bytes& payload);

  RecordLog log_;
};

struct JournalContents {
  std::vector<JournalRecord> records;
  /// Byte length of the prefix that parsed cleanly (file-header included).
  size_t valid_bytes = 0;
  /// True when a torn record at the end of the file was dropped.
  bool torn_tail = false;
};

/// Parses journal bytes. Torn tails are trimmed (crash recovery); bad
/// magic, version or CRC anywhere else returns a typed error.
Result<JournalContents> parse_journal(std::span<const u8> data);

/// Reads and parses a journal file. kNotFound when the file is absent.
Result<JournalContents> read_journal_file(const std::string& path);

/// Parses journal bytes and returns the steps to replay on top of a
/// snapshot with `snapshot_sequence`: everything after the last barrier
/// whose sequence matches. Empty when no such barrier exists — then every
/// journaled step is already folded into the snapshot (a crash hit
/// between the snapshot rename and the journal compaction) or the journal
/// belongs to an older generation; replaying would double-apply inputs.
/// Errors as parse_journal.
Result<std::vector<ScriptStep>> steps_after_barrier(
    std::span<const u8> data, u64 snapshot_sequence);

}  // namespace vgbl
