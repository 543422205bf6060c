// Minimal INI-style configuration parser for Espresso's three input files (§4.1,
// Figure 6: model information, GC information, training-system information).
//
// Supported syntax:
//   [section]
//   key = value            # trailing comments with '#' or ';'
// Keys keep their in-file order within a section (the model file lists tensors in
// backward order). Parsing never throws; malformed lines are reported via ok()/error().
#ifndef SRC_UTIL_CONFIG_H_
#define SRC_UTIL_CONFIG_H_

#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace espresso {

class ConfigFile {
 public:
  // Parses from a stream or a string; check ok() before use.
  static ConfigFile Parse(std::istream& in);
  static ConfigFile ParseString(const std::string& text);
  // Reads and parses a file; !ok() with an error message if unreadable.
  static ConfigFile Load(const std::string& path);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  std::optional<std::string> Get(std::string_view section, std::string_view key) const;
  std::string GetOr(std::string_view section, std::string_view key,
                    std::string_view fallback) const;
  std::optional<bool> GetBool(std::string_view section, std::string_view key) const;

  // Range-checked lookups with diagnostics: a present-but-malformed value, or one
  // outside [min, max], returns `fallback` AND records a warning citing the file and
  // line — bad knobs (fault-plan probabilities, retry caps) must not vanish silently.
  // A missing key is not an error; it returns `fallback` with no warning.
  double GetDoubleOr(std::string_view section, std::string_view key, double fallback,
                     double min, double max) const;
  int64_t GetIntOr(std::string_view section, std::string_view key, int64_t fallback,
                   int64_t min, int64_t max) const;

  // Diagnostics accumulated by the range-checked getters, e.g.
  // "faults.ini line 7: [faults] drop_probability = 1.7 out of range [0, 1]".
  const std::vector<std::string>& warnings() const { return warnings_; }

  // All (key, value) pairs of a section, in file order. Duplicate keys are preserved.
  std::vector<std::pair<std::string, std::string>> Entries(std::string_view section) const;

 private:
  struct Entry {
    std::string section;
    std::string key;
    std::string value;
    int line = 0;
  };
  const Entry* Find(std::string_view section, std::string_view key) const;
  void Warn(const Entry& entry, const std::string& reason) const;

  std::vector<Entry> entries_;
  std::string error_;
  std::string source_ = "<string>";  // file path for Load(), "<string>" otherwise
  // Collected by const getters; mutable so lookups stay const like the rest of the API.
  mutable std::vector<std::string> warnings_;
};

// Trims ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);

// Splits on any-of `delims`, trimming each piece and dropping empties.
std::vector<std::string> SplitFields(std::string_view s, std::string_view delims);

}  // namespace espresso

#endif  // SRC_UTIL_CONFIG_H_
