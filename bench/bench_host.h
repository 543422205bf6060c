// Host capability block shared by the JSON-report benchmarks (bench_executor,
// bench_selector). Committed baselines carry it so a fingerprint divergence can be
// traced back to the machine that produced the report: logical cpu count, the kernel
// ISA features the host exposes, and the table the kernel registry actually picked.
// Fingerprints themselves are ISA-independent (every SIMD table is bit-identical to
// the scalar reference), so --check never compares this block. Both benches also read
// their --check baseline through the helpers below.
#ifndef BENCH_BENCH_HOST_H_
#define BENCH_BENCH_HOST_H_

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "src/compress/kernels/kernels.h"
#include "src/util/json_reader.h"
#include "src/util/json_writer.h"
#include "src/util/thread_pool.h"

namespace espresso {

inline void WriteHostBlock(JsonWriter& json) {
  json.Key("host");
  json.BeginObject();
  json.Field("cpus", static_cast<uint64_t>(UsableCpus()));
  json.Field("active_kernel_isa", kernels::Active().isa);
  json.Key("isa_features");
  json.BeginArray();
  for (const char* feature : kernels::HostIsaFeatures()) {
    json.Value(feature);
  }
  json.EndArray();
  json.EndObject();
}

// Reads and parses the committed report that --check compares against, before the
// bench runs anything. False, with *error set, when the file cannot be read or parsed.
inline bool LoadBaseline(const std::string& path, JsonValue* baseline, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read baseline " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  JsonParseResult parsed = ParseJson(text.str());
  if (!parsed.ok) {
    *error = "baseline " + path + ": " + parsed.error;
    return false;
  }
  *baseline = std::move(parsed.value);
  return true;
}

// The entry of the baseline's `list` array whose "name" is `name`; nullptr when absent.
inline const JsonValue* BaselineEntry(const JsonValue& baseline, std::string_view list,
                                      std::string_view name) {
  const JsonValue* entries = baseline.Find(list);
  if (entries == nullptr) {
    return nullptr;
  }
  for (const JsonValue& entry : entries->items) {
    const JsonValue* entry_name = entry.Find("name");
    if (entry_name != nullptr && entry_name->IsString() && entry_name->text == name) {
      return &entry;
    }
  }
  return nullptr;
}

// The string member `key` of a baseline entry; empty when absent or not a string.
inline std::string BaselineText(const JsonValue& entry, std::string_view key) {
  const JsonValue* value = entry.Find(key);
  return value != nullptr && value->IsString() ? value->text : std::string();
}

}  // namespace espresso

#endif  // BENCH_BENCH_HOST_H_
