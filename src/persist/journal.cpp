#include "persist/journal.hpp"

#include <utility>

#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fileio.hpp"

namespace vgbl {
namespace {

struct JournalMetrics {
  obs::Counter& appends;
  obs::Counter& bytes;
  obs::Histogram& append_ms;

  static JournalMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static JournalMetrics m{
        reg.counter("persist_journal_appends_total",
                    "records appended to write-ahead journals"),
        reg.counter("persist_journal_bytes_total",
                    "framed bytes appended to write-ahead journals"),
        reg.histogram("persist_journal_append_ms",
                      obs::exponential_buckets(0.01, 2.0, 14),
                      "wall time of one journal append (write + flush)")};
    return m;
  }
};

constexpr RecordFormat kJournalFormat{kJournalMagic, kJournalVersion,
                                      "VGSJ journal"};

void write_step_payload(ByteWriter& w, const ScriptStep& s) {
  w.put_u8(static_cast<u8>(s.op));
  w.put_string(s.object_name);
  w.put_string(s.item_name);
  w.put_string(s.second_item_name);
  w.put_varint(s.choice);
  w.put_i64(s.wait_time);
  w.put_i32(s.point.x);
  w.put_i32(s.point.y);
}

Result<ScriptStep> read_step_payload(std::span<const u8> payload) {
  ByteReader r(payload);
  auto op = r.u8_();
  if (!op.ok()) return op.error();
  if (op.value() > static_cast<u8>(ScriptStep::Op::kClickPoint)) {
    return corrupt_data("journal step has unknown op " +
                        std::to_string(op.value()));
  }
  auto object = r.string();
  auto item = r.string();
  auto second = r.string();
  auto choice = r.varint();
  auto wait_time = r.i64_();
  auto px = r.i32_();
  auto py = r.i32_();
  if (!object.ok()) return object.error();
  if (!item.ok()) return item.error();
  if (!second.ok()) return second.error();
  if (!choice.ok()) return choice.error();
  if (!wait_time.ok()) return wait_time.error();
  if (!px.ok()) return px.error();
  if (!py.ok()) return py.error();
  ScriptStep s;
  s.op = static_cast<ScriptStep::Op>(op.value());
  s.object_name = std::move(object).value();
  s.item_name = std::move(item).value();
  s.second_item_name = std::move(second).value();
  s.choice = static_cast<size_t>(choice.value());
  s.wait_time = wait_time.value();
  s.point = {px.value(), py.value()};
  return s;
}

Result<JournalRecord> decode_record(const LogRecord& log_record) {
  JournalRecord record;
  if (log_record.kind == static_cast<u8>(JournalRecord::Kind::kStep)) {
    auto step = read_step_payload(log_record.payload);
    if (!step.ok()) {
      return corrupt_data("journal step record at byte " +
                          std::to_string(log_record.offset) + ": " +
                          step.error().message);
    }
    record.step = std::move(step).value();
  } else if (log_record.kind ==
             static_cast<u8>(JournalRecord::Kind::kBarrier)) {
    ByteReader pr(log_record.payload);
    auto sequence = pr.varint();
    auto steps = pr.varint();
    if (!sequence.ok() || !steps.ok()) {
      return corrupt_data("journal barrier record at byte " +
                          std::to_string(log_record.offset) +
                          " is malformed");
    }
    record.kind = JournalRecord::Kind::kBarrier;
    record.barrier_sequence = sequence.value();
    record.barrier_step_count = steps.value();
  } else {
    return corrupt_data("journal record at byte " +
                        std::to_string(log_record.offset) +
                        " has unknown kind " +
                        std::to_string(log_record.kind));
  }
  return record;
}

/// Decodes every record of a parsed log, so damage anywhere in the
/// journal is reported even when only its tail gets replayed.
Result<JournalContents> decode_journal(const ParsedRecordLog& log) {
  JournalContents out;
  out.valid_bytes = log.valid_bytes;
  out.torn_tail = log.torn_tail;
  out.records.reserve(log.records.size());
  for (const LogRecord& log_record : log.records) {
    auto record = decode_record(log_record);
    if (!record.ok()) return record.error();
    out.records.push_back(std::move(record).value());
  }
  return out;
}

}  // namespace

// --- JournalWriter ----------------------------------------------------------

Result<JournalWriter> JournalWriter::create(const std::string& path) {
  auto log = RecordLog::create(path, kJournalFormat);
  if (!log.ok()) return log.error();
  return JournalWriter(std::move(log).value());
}

Status JournalWriter::append_record(JournalRecord::Kind kind,
                                    const Bytes& payload) {
  JournalMetrics& metrics = JournalMetrics::get();
  VGBL_SPAN("persist.journal_append");
  VGBL_TIMER(metrics.append_ms);
  const u64 before = log_.bytes_written();
  if (auto st = log_.append(static_cast<u8>(kind), payload); !st.ok()) {
    return st;
  }
  VGBL_COUNT(metrics.appends);
  VGBL_COUNT(metrics.bytes, log_.bytes_written() - before);
  return {};
}

Status JournalWriter::append_step(const ScriptStep& step) {
  ByteWriter payload;
  write_step_payload(payload, step);
  return append_record(JournalRecord::Kind::kStep, payload.bytes());
}

Status JournalWriter::append_barrier(u64 snapshot_sequence, u64 step_count) {
  ByteWriter payload;
  payload.put_varint(snapshot_sequence);
  payload.put_varint(step_count);
  return append_record(JournalRecord::Kind::kBarrier, payload.bytes());
}

// --- reading ----------------------------------------------------------------

Result<JournalContents> parse_journal(std::span<const u8> data) {
  auto log = parse_record_log(data, kJournalFormat);
  if (!log.ok()) return log.error();
  return decode_journal(log.value());
}

Result<JournalContents> read_journal_file(const std::string& path) {
  auto data = read_binary_file(path);
  if (!data.ok()) return data.error();
  return parse_journal(data.value());
}

Result<std::vector<ScriptStep>> steps_after_barrier(
    std::span<const u8> data, u64 snapshot_sequence) {
  auto log = parse_record_log(data, kJournalFormat);
  if (!log.ok()) return log.error();
  auto journal = decode_journal(log.value());
  if (!journal.ok()) return journal.error();
  std::vector<ScriptStep> steps;
  const auto barrier = last_barrier(log.value().records, snapshot_sequence);
  if (!barrier.has_value()) return steps;
  auto& records = journal.value().records;
  for (size_t i = *barrier + 1; i < records.size(); ++i) {
    if (records[i].kind == JournalRecord::Kind::kStep) {
      steps.push_back(std::move(records[i].step));
    }
  }
  return steps;
}

}  // namespace vgbl
