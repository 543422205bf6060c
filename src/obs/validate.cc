#include "src/obs/validate.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "src/util/json_reader.h"
#include "src/util/parse_number.h"

namespace espresso::obs {

namespace {

// Prometheus sample values are Go float literals; NaN, +Inf and -Inf parse here too,
// since std::from_chars reads "nan" and "inf" in any case.
bool ValidPrometheusValue(std::string_view token) {
  double value = 0.0;
  return ParseDouble(token, &value) == NumberParse::kOk;
}

}  // namespace

ValidationResult ValidateJsonDocument(std::string_view text) {
  ValidationResult result;
  const JsonParseResult parsed = ParseJson(text);
  if (!parsed.ok) {
    result.error = parsed.error;
    return result;
  }
  result.ok = true;
  for (const auto& [key, value] : parsed.value.members) {
    if (key == "metrics" || key == "traceEvents") {
      result.samples = value.items.size();
      break;
    }
  }
  return result;
}

ValidationResult ValidatePrometheusText(std::string_view text) {
  ValidationResult result;
  size_t line_number = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t nl = text.find('\n', begin);
    const std::string_view line =
        text.substr(begin, nl == std::string_view::npos ? text.size() - begin
                                                        : nl - begin);
    begin = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    // `name[{labels}] value` — split on the last space.
    const size_t value_at = line.rfind(' ');
    if (value_at == std::string_view::npos || value_at == 0) {
      result.error = "line " + std::to_string(line_number) + ": no value";
      return result;
    }
    const std::string_view series = line.substr(0, value_at);
    const std::string_view value = line.substr(value_at + 1);
    const char first = series[0];
    if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) {
      result.error = "line " + std::to_string(line_number) + ": bad metric name";
      return result;
    }
    const size_t brace = series.find('{');
    if (brace != std::string_view::npos && series.back() != '}') {
      result.error = "line " + std::to_string(line_number) + ": unclosed labels";
      return result;
    }
    if (!ValidPrometheusValue(value)) {
      result.error = "line " + std::to_string(line_number) + ": bad sample value";
      return result;
    }
    ++result.samples;
  }
  if (result.samples == 0) {
    result.error = "no metric samples";
    return result;
  }
  result.ok = true;
  return result;
}

ValidationResult ValidateMetricsFile(const std::string& path) {
  ValidationResult result;
  std::ifstream in(path);
  if (!in) {
    result.error = "cannot read " + path;
    return result;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  size_t first = 0;
  while (first < text.size() && std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  if (first == text.size()) {
    result.error = path + ": empty file";
    return result;
  }
  if (text[first] == '{') {
    result = ValidateJsonDocument(text);
    if (result.ok && result.samples == 0) {
      result.ok = false;
      result.error = "no metrics or traceEvents entries";
    }
  } else {
    result = ValidatePrometheusText(text);
  }
  if (!result.ok && result.error.find(path) == std::string::npos) {
    result.error = path + ": " + result.error;
  }
  return result;
}

}  // namespace espresso::obs
