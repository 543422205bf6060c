// AuditLog: a thread-safe, append-only JSONL event file.
//
// The strategy-selection service records every served and rejected request here, so
// an operator can reconstruct *why* a client received the strategy it did: the
// metrics say how often, the audit log says what and when. The attached file is the
// only copy of the trail; nothing is kept in memory. One event per line, flushed as
// written, so a crashed process leaves at worst a complete prefix (a torn final line
// is ignorable by any JSONL reader). The log is generic: callers supply the event
// fields through a JsonWriter callback; AuditLog owns the envelope (monotonic "seq",
// "event").
//
// Write failures are DETECTED: the stream state is checked after every flush; a failed
// write bumps the espresso_audit_write_failures_total counter and latches a sticky
// error (write_failed()/last_write_error()) that operators can alert on. Appends keep
// going — a full disk degrades the audit trail, it must not silently drop records with
// no trace, and must not take the serving path down with it.
#ifndef SRC_OBS_AUDIT_LOG_H_
#define SRC_OBS_AUDIT_LOG_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "src/util/json_writer.h"

namespace espresso::obs {

class AuditLog {
 public:
  AuditLog() = default;

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  // Attaches a JSONL file, created if absent, appended to if present (a restarted
  // process continues the same audit trail). Returns false (with *error set) if the
  // file cannot be opened; appends then write nowhere.
  bool Open(const std::string& path, std::string* error = nullptr);

  // Appends one event line: {"seq": N, "event": "<event>", ...fields}. The callback
  // writes the remaining fields via JsonWriter::Field inside the already-open object
  // (it may be null for envelope-only events). Thread-safe; the line is flushed to the
  // file before returning, and the stream state is checked — see write_failed(). With
  // no file attached the event only takes its sequence number.
  void Append(std::string_view event,
              const std::function<void(JsonWriter&)>& fields = nullptr);

  // Sticky write-failure state: true once any file write has failed (disk full,
  // volume gone). Subsequent appends still try — and keep counting failures.
  bool write_failed() const;
  uint64_t write_failures() const;
  // Description of the first failure ("" while healthy).
  std::string last_write_error() const;

 private:
  mutable std::mutex mu_;
  std::ofstream file_;
  std::string path_;
  uint64_t next_seq_ = 0;
  uint64_t write_failures_ = 0;
  std::string write_error_;
};

}  // namespace espresso::obs

#endif  // SRC_OBS_AUDIT_LOG_H_
