#include "src/util/config.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "src/util/parse_number.h"

namespace espresso {

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> SplitFields(std::string_view s, std::string_view delims) {
  std::vector<std::string> fields;
  size_t begin = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      const std::string_view piece = TrimView(s.substr(begin, i - begin));
      if (!piece.empty()) {
        fields.emplace_back(piece);
      }
      begin = i + 1;
    }
  }
  return fields;
}

ConfigFile ConfigFile::Parse(std::istream& in) {
  ConfigFile config;
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments ('#' or ';') and whitespace.
    const size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    const std::string_view trimmed = TrimView(line);
    if (trimmed.empty()) {
      continue;
    }
    if (trimmed.front() == '[') {
      if (trimmed.back() != ']' || trimmed.size() < 3) {
        config.error_ = "line " + std::to_string(line_number) + ": malformed section header";
        return config;
      }
      section = std::string(TrimView(trimmed.substr(1, trimmed.size() - 2)));
      continue;
    }
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      config.error_ = "line " + std::to_string(line_number) + ": expected key = value";
      return config;
    }
    Entry entry;
    entry.section = section;
    entry.key = std::string(TrimView(trimmed.substr(0, eq)));
    entry.value = std::string(TrimView(trimmed.substr(eq + 1)));
    entry.line = line_number;
    if (entry.key.empty()) {
      config.error_ = "line " + std::to_string(line_number) + ": empty key";
      return config;
    }
    config.entries_.push_back(std::move(entry));
  }
  return config;
}

ConfigFile ConfigFile::ParseString(const std::string& text) {
  std::istringstream in(text);
  return Parse(in);
}

ConfigFile ConfigFile::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ConfigFile config;
    config.error_ = "cannot open " + path;
    return config;
  }
  ConfigFile config = Parse(in);
  config.source_ = path;
  if (!config.ok()) {
    config.error_ = path + ": " + config.error_;
  }
  return config;
}

const ConfigFile::Entry* ConfigFile::Find(std::string_view section,
                                          std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.section == section && e.key == key) {
      return &e;
    }
  }
  return nullptr;
}

void ConfigFile::Warn(const Entry& entry, const std::string& reason) const {
  warnings_.push_back(source_ + " line " + std::to_string(entry.line) + ": [" +
                      entry.section + "] " + entry.key + " = " + entry.value + " " +
                      reason);
}

std::optional<std::string> ConfigFile::Get(std::string_view section,
                                           std::string_view key) const {
  for (const Entry& e : entries_) {
    if (e.section == section && e.key == key) {
      return e.value;
    }
  }
  return std::nullopt;
}

std::string ConfigFile::GetOr(std::string_view section, std::string_view key,
                              std::string_view fallback) const {
  return Get(section, key).value_or(std::string(fallback));
}

std::optional<double> ConfigFile::GetDouble(std::string_view section,
                                            std::string_view key) const {
  const auto value = Get(section, key);
  if (!value) {
    return std::nullopt;
  }
  // Locale-independent and exception-free: a de_DE process locale must not turn
  // "0.25" into 0, and a hostile "1e999" must diagnose, not throw.
  return ParseDoubleOpt(*value);
}

std::optional<int64_t> ConfigFile::GetInt(std::string_view section,
                                          std::string_view key) const {
  const auto value = Get(section, key);
  if (!value) {
    return std::nullopt;
  }
  return ParseInt64Opt(*value);
}

std::optional<bool> ConfigFile::GetBool(std::string_view section,
                                        std::string_view key) const {
  const auto value = Get(section, key);
  if (!value) {
    return std::nullopt;
  }
  if (*value == "true" || *value == "1" || *value == "yes" || *value == "on") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no" || *value == "off") {
    return false;
  }
  return std::nullopt;
}

double ConfigFile::GetDoubleOr(std::string_view section, std::string_view key,
                               double fallback, double min, double max) const {
  const Entry* entry = Find(section, key);
  if (entry == nullptr) {
    return fallback;
  }
  double value = 0.0;
  const NumberParse status = ParseDouble(entry->value, &value);
  if (status != NumberParse::kOk) {
    Warn(*entry, std::string(NumberParseMessage(status)) + "; using " +
                     std::to_string(fallback));
    return fallback;
  }
  const std::optional<double> parsed = value;
  if (*parsed < min || *parsed > max) {
    Warn(*entry, "out of range [" + std::to_string(min) + ", " + std::to_string(max) +
                     "]; using " + std::to_string(fallback));
    return fallback;
  }
  return *parsed;
}

int64_t ConfigFile::GetIntOr(std::string_view section, std::string_view key,
                             int64_t fallback, int64_t min, int64_t max) const {
  const Entry* entry = Find(section, key);
  if (entry == nullptr) {
    return fallback;
  }
  int64_t value = 0;
  const NumberParse status = ParseInt64(entry->value, &value);
  if (status != NumberParse::kOk) {
    Warn(*entry, std::string(NumberParseMessage(status)) + "; using " +
                     std::to_string(fallback));
    return fallback;
  }
  const std::optional<int64_t> parsed = value;
  if (*parsed < min || *parsed > max) {
    Warn(*entry, "out of range [" + std::to_string(min) + ", " + std::to_string(max) +
                     "]; using " + std::to_string(fallback));
    return fallback;
  }
  return *parsed;
}

std::vector<std::pair<std::string, std::string>> ConfigFile::Entries(
    std::string_view section) const {
  std::vector<std::pair<std::string, std::string>> result;
  for (const Entry& e : entries_) {
    if (e.section == section) {
      result.emplace_back(e.key, e.value);
    }
  }
  return result;
}

}  // namespace espresso
