// Output validation for the observability surfaces: JSON well-formedness (through
// ParseJson, src/util/json_reader.h) plus Prometheus text-format line validation. Used
// by the `metrics_check` CI gate — exit non-zero on malformed or empty metric/trace
// files — and by tests.
#ifndef SRC_OBS_VALIDATE_H_
#define SRC_OBS_VALIDATE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace espresso::obs {

struct ValidationResult {
  bool ok = false;
  std::string error;   // empty when ok
  size_t samples = 0;  // metric samples / trace events / array elements found
};

// Full-document JSON check, nesting at most 64 levels deep. `samples` counts the
// elements of the first top-level "metrics" or "traceEvents" member (0 if there is
// none, or if it is not an array); every producer writes that array at the top level.
ValidationResult ValidateJsonDocument(std::string_view text);

// Prometheus text exposition format: every non-comment, non-blank line must be
// `name[{labels}] value`; `samples` counts sample lines and must be > 0.
ValidationResult ValidatePrometheusText(std::string_view text);

// Dispatches on the first non-space byte ('{' -> JSON, else Prometheus), and
// additionally fails empty files and JSON documents with zero samples.
ValidationResult ValidateMetricsFile(const std::string& path);

}  // namespace espresso::obs

#endif  // SRC_OBS_VALIDATE_H_
