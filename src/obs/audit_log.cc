#include "src/obs/audit_log.h"

#include <cerrno>
#include <sstream>

#include "src/obs/metrics.h"

namespace espresso::obs {

namespace {

Counter WriteFailuresCounter() {
  static const Counter counter = GlobalMetrics().RegisterCounter(
      "espresso_audit_write_failures_total",
      "Audit-log lines that failed to reach the attached file (disk full, I/O error)");
  return counter;
}

}  // namespace

bool AuditLog::Open(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  file_.open(path, std::ios::app);
  if (!file_) {
    if (error != nullptr) {
      *error = "cannot open audit log " + path;
    }
    return false;
  }
  path_ = path;
  return true;
}

void AuditLog::Append(std::string_view event,
                      const std::function<void(JsonWriter&)>& fields) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = next_seq_++;
  if (!file_.is_open()) {
    return;
  }
  std::ostringstream line;
  {
    JsonWriter json(line);
    json.BeginObject();
    json.Field("seq", seq);
    json.Field("event", event);
    if (fields) {
      fields(json);
    }
    json.EndObject();
  }
  // One line per event, flushed immediately: a crash can tear at most the line in
  // flight, never an earlier record. The stream is checked after the flush — an audit
  // record silently lost to a full disk is a hole in the trail.
  errno = 0;
  file_ << line.str() << '\n' << std::flush;
  if (!file_) {
    ++write_failures_;
    GlobalMetrics().Add(WriteFailuresCounter());
    if (write_error_.empty()) {
      const int saved_errno = errno;
      write_error_ = "audit write to " + path_ + " failed at seq " + std::to_string(seq) +
                     (saved_errno != 0 ? " (errno " + std::to_string(saved_errno) + ")"
                                       : "");
    }
    // Clear the stream error so later appends still try (and keep counting):
    // a transient ENOSPC should not end the audit trail forever.
    file_.clear();
  }
}

bool AuditLog::write_failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_failures_ > 0;
}

uint64_t AuditLog::write_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_failures_;
}

std::string AuditLog::last_write_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return write_error_;
}

}  // namespace espresso::obs
