// AuditLog: a thread-safe, append-only JSONL event stream.
//
// The deployment pipeline (src/ddl/strategy_deployment.h) records every strategy
// deploy and rejection here — and the strategy-selection service records
// every served and rejected request — so an operator can reconstruct *why* the
// executors are running the strategy they are running: the metrics say how often,
// the audit log says what and when. One event per line, flushed as written, so a
// crashed process leaves at worst a complete prefix (a torn final line is ignorable
// by any JSONL reader). The log is generic: callers supply the event fields through
// a JsonWriter callback; AuditLog owns the envelope (monotonic "seq", "event").
//
// Long-lived-process guarantees:
//   * In-memory retention is BOUNDED: entries() is a ring of the most recent
//     `retention` lines; the complete history lives only in the attached file.
//     (Pre-fix, every line was retained forever — a slow leak in a server that
//     audits every request.)
//   * Write failures are DETECTED: the stream state is checked after every flush;
//     a failed write bumps the espresso_audit_write_failures_total counter and
//     latches a sticky error (write_failed()/last_write_error()) that operators
//     can alert on. Appends keep going — a full disk degrades the audit trail, it
//     must not silently drop records with no trace, and must not take the serving
//     path down with it.
#ifndef SRC_OBS_AUDIT_LOG_H_
#define SRC_OBS_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json_writer.h"

namespace espresso::obs {

// Default bound on the in-memory ring. Big enough that tests and operator tooling
// see a useful window, small enough that a server auditing millions of requests
// holds a constant few hundred KB.
inline constexpr size_t kDefaultAuditRetention = 1024;

class AuditLog {
 public:
  // A default-constructed log is in-memory only; events accumulate in entries(),
  // keeping at most `retention` of the most recent lines (0 means keep none).
  explicit AuditLog(size_t retention = kDefaultAuditRetention);

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  // Attaches a JSONL file, created if absent, appended to if present (a restarted
  // process continues the same audit trail). Returns false (with *error set) if the
  // file cannot be opened; the log then stays in-memory only.
  bool Open(const std::string& path, std::string* error = nullptr);

  // Appends one event line: {"seq": N, "event": "<event>", ...fields}. The callback
  // writes the remaining fields via JsonWriter::Field inside the already-open object
  // (it may be null for envelope-only events). Returns the event's sequence number.
  // Thread-safe; the line is flushed to the file before returning, and the stream
  // state is checked — see write_failed().
  uint64_t Append(std::string_view event,
                  const std::function<void(JsonWriter&)>& fields = nullptr);

  // The most recent lines appended by this process (at most retention()), in order,
  // regardless of whether a file is attached. Returns a copy for thread safety.
  std::vector<std::string> entries() const;

  // Total events appended by this process (NOT capped by retention).
  uint64_t size() const;
  size_t retention() const { return retention_; }
  const std::string& path() const { return path_; }

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
  size_t retention_;
  uint64_t next_seq_ = 0;
  std::deque<std::string> entries_;
  uint64_t write_failures_ = 0;
  std::string write_error_;
};

}  // namespace espresso::obs

#endif  // SRC_OBS_AUDIT_LOG_H_
