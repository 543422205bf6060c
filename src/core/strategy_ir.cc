#include "src/core/strategy_ir.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <sstream>

#include "src/core/eval_cache.h"
#include "src/util/atomic_file.h"
#include "src/util/hash.h"
#include "src/util/json_reader.h"
#include "src/util/json_writer.h"

namespace espresso {

// Digests travel as fixed-width lowercase hex strings, not JSON numbers: a double
// cannot represent every uint64_t, and a digest that loses bits cannot verify.
std::string DigestHex(uint64_t value) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  return out;
}

namespace {

// Hostile-input guards: a tampered document must produce a diagnostic, not a
// multi-gigabyte resize.
constexpr size_t kMaxIrTensors = 1'000'000;
constexpr size_t kMaxIrOpsPerTensor = 1'000;
constexpr uint64_t kMaxIrFanIn = 1'000'000;

bool ValidIrFraction(double f) { return std::isfinite(f) && f > 0.0 && f <= 1.0; }

// Op token vocabulary. Routines and phases are written with RoutineName/CommPhaseName
// (option.h); the parsers below accept exactly the tokens those functions emit.
const char* ActionTaskToken(ActionTask task) {
  switch (task) {
    case ActionTask::kCompress:
      return "compress";
    case ActionTask::kDecompress:
      return "decompress";
    case ActionTask::kComm:
      return "comm";
  }
  return "?";
}

const char* DeviceToken(Device device) { return device == Device::kGpu ? "gpu" : "cpu"; }

std::optional<ActionTask> ParseActionTaskToken(std::string_view token) {
  if (token == "compress") {
    return ActionTask::kCompress;
  }
  if (token == "decompress") {
    return ActionTask::kDecompress;
  }
  if (token == "comm") {
    return ActionTask::kComm;
  }
  return std::nullopt;
}

std::optional<Routine> ParseRoutineToken(std::string_view token) {
  static const std::map<std::string_view, Routine> kRoutines = {
      {"allreduce", Routine::kAllreduce},   {"reduce-scatter", Routine::kReduceScatter},
      {"allgather", Routine::kAllgather},   {"reduce", Routine::kReduce},
      {"broadcast", Routine::kBroadcast},   {"alltoall", Routine::kAlltoall},
      {"gather", Routine::kGather},
  };
  const auto it = kRoutines.find(token);
  return it == kRoutines.end() ? std::nullopt : std::optional<Routine>(it->second);
}

std::optional<CommPhase> ParseCommPhaseToken(std::string_view token) {
  if (token == "flat") {
    return CommPhase::kFlat;
  }
  if (token == "intra1") {
    return CommPhase::kIntraFirst;
  }
  if (token == "inter") {
    return CommPhase::kInter;
  }
  if (token == "intra2") {
    return CommPhase::kIntraSecond;
  }
  return std::nullopt;
}

std::optional<Device> ParseDeviceToken(std::string_view token) {
  if (token == "gpu") {
    return Device::kGpu;
  }
  if (token == "cpu") {
    return Device::kCpu;
  }
  return std::nullopt;
}

bool ParseDigestHex(std::string_view text, uint64_t* out) {
  if (text.size() != 16) {
    return false;
  }
  uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

uint64_t HashLink(uint64_t h, const LinkSpec& link) {
  h = HashString(h, link.name);
  h = HashDouble(h, link.latency_s);
  return HashDouble(h, link.bytes_per_second);
}

uint64_t HashDeviceCost(uint64_t h, const DeviceCostSpec& spec) {
  h = HashDouble(h, spec.launch_overhead_s);
  h = HashDouble(h, spec.compress_bytes_per_s);
  return HashDouble(h, spec.decompress_bytes_per_s);
}

// --- canonical writer -----------------------------------------------------------

void WriteOpJson(std::ostream& os, const Op& op) {
  os << "{\"task\": " << JsonQuoted(ActionTaskToken(op.task));
  if (op.task == ActionTask::kComm) {
    os << ", \"routine\": " << JsonQuoted(RoutineName(op.routine));
  } else {
    os << ", \"device\": " << JsonQuoted(DeviceToken(op.device));
  }
  os << ", \"phase\": " << JsonQuoted(CommPhaseName(op.phase))
     << ", \"domain\": " << FormatDouble(op.domain_fraction)
     << ", \"payload\": " << FormatDouble(op.payload_fraction)
     << ", \"fan_in\": " << op.fan_in
     << ", \"compressed\": " << (op.compressed ? "true" : "false")
     << ", \"machine_level\": " << (op.machine_level ? "true" : "false") << "}";
}

// --- strict parser --------------------------------------------------------------

std::string LinePrefix(int line) { return "line " + std::to_string(line) + ": "; }

// Every helper fills *error with a "line N: ..." diagnostic on failure.
const JsonValue* ExpectMember(const JsonValue& obj, std::string_view key,
                              std::string* error) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) {
    *error = LinePrefix(obj.line) + "missing required field '" + std::string(key) + "'";
  }
  return value;
}

// Rejects both unknown and duplicated keys (the JSON layer keeps duplicates).
bool CheckKeys(const JsonValue& obj, std::initializer_list<std::string_view> allowed,
               std::string* error) {
  for (size_t i = 0; i < obj.members.size(); ++i) {
    const auto& [key, value] = obj.members[i];
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      *error = LinePrefix(value.line) + "unknown field '" + key + "'";
      return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (obj.members[j].first == key) {
        *error = LinePrefix(value.line) + "duplicated field '" + key + "'";
        return false;
      }
    }
  }
  return true;
}

bool ExpectString(const JsonValue& obj, std::string_view key, std::string* out,
                  std::string* error) {
  const JsonValue* value = ExpectMember(obj, key, error);
  if (value == nullptr) {
    return false;
  }
  if (!value->IsString()) {
    *error = LinePrefix(value->line) + "'" + std::string(key) + "' must be a string";
    return false;
  }
  *out = value->text;
  return true;
}

bool ExpectBool(const JsonValue& obj, std::string_view key, bool* out,
                std::string* error) {
  const JsonValue* value = ExpectMember(obj, key, error);
  if (value == nullptr) {
    return false;
  }
  if (!value->IsBool()) {
    *error = LinePrefix(value->line) + "'" + std::string(key) + "' must be true or false";
    return false;
  }
  *out = value->bool_value;
  return true;
}

bool ExpectUint(const JsonValue& obj, std::string_view key, uint64_t min, uint64_t max,
                uint64_t* out, std::string* error) {
  const JsonValue* value = ExpectMember(obj, key, error);
  if (value == nullptr) {
    return false;
  }
  uint64_t parsed = 0;
  if (!value->AsUint64(&parsed) || parsed < min || parsed > max) {
    *error = LinePrefix(value->line) + "'" + std::string(key) +
             "' must be an integer in [" + std::to_string(min) + ", " +
             std::to_string(max) + "]";
    return false;
  }
  *out = parsed;
  return true;
}

bool ExpectFraction(const JsonValue& obj, std::string_view key, double* out,
                    std::string* error) {
  const JsonValue* value = ExpectMember(obj, key, error);
  if (value == nullptr) {
    return false;
  }
  if (!value->IsNumber() || !ValidIrFraction(value->number)) {
    *error = LinePrefix(value->line) + "'" + std::string(key) +
             "' must be a number in (0, 1]";
    return false;
  }
  *out = value->number;
  return true;
}

bool ExpectDigest(const JsonValue& obj, std::string_view key, uint64_t* out,
                  std::string* error) {
  const JsonValue* value = ExpectMember(obj, key, error);
  if (value == nullptr) {
    return false;
  }
  if (!value->IsString() || !ParseDigestHex(value->text, out)) {
    *error = LinePrefix(value->line) + "'" + std::string(key) +
             "' must be a 16-digit lowercase hex digest";
    return false;
  }
  return true;
}

bool ParseOpJson(const JsonValue& node, Op* op, std::string* error) {
  if (!node.IsObject()) {
    *error = LinePrefix(node.line) + "op must be an object";
    return false;
  }
  std::string task_token;
  if (!ExpectString(node, "task", &task_token, error)) {
    return false;
  }
  const auto task = ParseActionTaskToken(task_token);
  if (!task) {
    *error = LinePrefix(node.line) + "unknown op task '" + task_token + "'";
    return false;
  }
  op->task = *task;
  if (op->task == ActionTask::kComm) {
    if (!CheckKeys(node,
                   {"task", "routine", "phase", "domain", "payload", "fan_in",
                    "compressed", "machine_level"},
                   error)) {
      return false;
    }
    std::string routine_token;
    if (!ExpectString(node, "routine", &routine_token, error)) {
      return false;
    }
    const auto routine = ParseRoutineToken(routine_token);
    if (!routine) {
      *error = LinePrefix(node.line) + "unknown routine '" + routine_token + "'";
      return false;
    }
    op->routine = *routine;
  } else {
    if (!CheckKeys(node,
                   {"task", "device", "phase", "domain", "payload", "fan_in",
                    "compressed", "machine_level"},
                   error)) {
      return false;
    }
    std::string device_token;
    if (!ExpectString(node, "device", &device_token, error)) {
      return false;
    }
    const auto device = ParseDeviceToken(device_token);
    if (!device) {
      *error = LinePrefix(node.line) + "unknown device '" + device_token + "'";
      return false;
    }
    op->device = *device;
  }
  std::string phase_token;
  if (!ExpectString(node, "phase", &phase_token, error)) {
    return false;
  }
  const auto phase = ParseCommPhaseToken(phase_token);
  if (!phase) {
    *error = LinePrefix(node.line) + "unknown phase '" + phase_token + "'";
    return false;
  }
  op->phase = *phase;
  uint64_t fan_in = 0;
  if (!ExpectFraction(node, "domain", &op->domain_fraction, error) ||
      !ExpectFraction(node, "payload", &op->payload_fraction, error) ||
      !ExpectUint(node, "fan_in", 1, kMaxIrFanIn, &fan_in, error) ||
      !ExpectBool(node, "compressed", &op->compressed, error) ||
      !ExpectBool(node, "machine_level", &op->machine_level, error)) {
    return false;
  }
  op->fan_in = static_cast<size_t>(fan_in);
  return true;
}

bool ParseTensorJson(const JsonValue& node, size_t expected_index,
                     CompressionOption* option, std::string* error) {
  if (!node.IsObject()) {
    *error = LinePrefix(node.line) + "tensor record must be an object";
    return false;
  }
  if (!CheckKeys(node, {"index", "label", "flat", "ops"}, error)) {
    return false;
  }
  uint64_t index = 0;
  if (!ExpectUint(node, "index", 0, kMaxIrTensors - 1, &index, error)) {
    return false;
  }
  if (index != expected_index) {
    *error = LinePrefix(node.line) + "tensor record " + std::to_string(expected_index) +
             " has index " + std::to_string(index) + " (records must be dense and ordered)";
    return false;
  }
  if (!ExpectString(node, "label", &option->label, error) ||
      !ExpectBool(node, "flat", &option->flat, error)) {
    return false;
  }
  const JsonValue* ops = ExpectMember(node, "ops", error);
  if (ops == nullptr) {
    return false;
  }
  if (!ops->IsArray() || ops->items.empty()) {
    *error = LinePrefix(ops->line) + "'ops' must be a non-empty array";
    return false;
  }
  if (ops->items.size() > kMaxIrOpsPerTensor) {
    *error = LinePrefix(ops->line) + "'ops' has more than " +
             std::to_string(kMaxIrOpsPerTensor) + " entries";
    return false;
  }
  option->ops.reserve(ops->items.size());
  for (const JsonValue& op_node : ops->items) {
    Op op;
    if (!ParseOpJson(op_node, &op, error)) {
      return false;
    }
    option->ops.push_back(op);
  }
  return true;
}

}  // namespace

uint64_t ModelDigest(const ModelProfile& model) {
  uint64_t h = HashString(0, "espresso.model");
  h = HashString(h, model.name);
  h = HashDouble(h, model.forward_time_s);
  h = HashDouble(h, model.optimizer_time_s);
  h = HashCombine(h, model.batch_size);
  h = HashString(h, model.throughput_unit);
  h = HashCombine(h, model.tensors.size());
  for (const TensorSpec& tensor : model.tensors) {
    h = HashString(h, tensor.name);
    h = HashCombine(h, tensor.elements);
    h = HashDouble(h, tensor.backward_time_s);
  }
  return h;
}

uint64_t ClusterDigest(const ClusterSpec& cluster) {
  uint64_t h = HashString(0, "espresso.cluster");
  h = HashCombine(h, cluster.machines);
  h = HashCombine(h, cluster.gpus_per_machine);
  h = HashLink(h, cluster.intra);
  h = HashLink(h, cluster.inter);
  h = HashDeviceCost(h, cluster.gpu_compression);
  h = HashDeviceCost(h, cluster.cpu_compression);
  h = HashCombine(h, cluster.cpu_workers_per_gpu);
  return HashCombine(h, cluster.host_copy_contends_intra ? 1 : 0);
}

uint64_t CompressionDigest(const CompressorConfig& config) {
  uint64_t h = HashString(0, "espresso.compression");
  h = HashString(h, config.algorithm);
  h = HashDouble(h, config.ratio);
  h = HashCombine(h, static_cast<uint64_t>(config.bits));
  return HashDouble(h, config.threshold);
}

uint64_t StrategyIR::ContentDigest() const {
  uint64_t h = HashString(0, "espresso.strategy-ir");
  h = HashCombine(h, static_cast<uint64_t>(schema_version));
  h = HashCombine(h, model_digest);
  h = HashCombine(h, cluster_digest);
  h = HashCombine(h, compression_digest);
  h = HashDouble(h, fs_score);
  h = HashString(h, provenance.origin);
  h = HashString(h, provenance.selector);
  h = HashCombine(h, provenance.iteration);
  h = HashDouble(h, provenance.drift);
  h = HashCombine(h, strategy.options.size());
  for (size_t t = 0; t < strategy.options.size(); ++t) {
    const CompressionOption& option = strategy.options[t];
    h = HashCombine(h, t);
    h = HashCombine(h, option.flat ? 1 : 0);
    h = HashString(h, option.label);
    h = HashCombine(h, option.ops.size());
    for (const Op& op : option.ops) {
      h = HashCombine(h, static_cast<uint64_t>(op.task));
      h = HashCombine(h, static_cast<uint64_t>(op.phase));
      // Only the field the op's task gives meaning to is hashed (and serialized):
      // comm ops carry a routine, compute ops carry a device. Hashing the inactive
      // field would make the digest depend on bits the writer never emits, so a
      // freshly compiled IR could fail its own round-trip.
      if (op.task == ActionTask::kComm) {
        h = HashCombine(h, static_cast<uint64_t>(op.routine));
      } else {
        h = HashCombine(h, static_cast<uint64_t>(op.device));
      }
      h = HashDouble(h, op.domain_fraction);
      h = HashDouble(h, op.payload_fraction);
      h = HashCombine(h, op.fan_in);
      h = HashCombine(h, op.compressed ? 1 : 0);
      h = HashCombine(h, op.machine_level ? 1 : 0);
    }
  }
  return h;
}

StrategyIR CompileStrategyIR(const Strategy& strategy, double fs_score,
                             const ModelProfile& model, const ClusterSpec& cluster,
                             const CompressorConfig& compressor,
                             StrategyProvenance provenance) {
  StrategyIR ir;
  ir.schema_version = kStrategyIrSchemaVersion;
  ir.model_digest = ModelDigest(model);
  ir.cluster_digest = ClusterDigest(cluster);
  ir.compression_digest = CompressionDigest(compressor);
  ir.fs_score = fs_score;
  ir.provenance = std::move(provenance);
  ir.strategy = strategy;
  return ir;
}

void WriteStrategyIR(std::ostream& os, const StrategyIR& ir) {
  os << "{\n";
  os << "  \"espresso_strategy_ir\": " << ir.schema_version << ",\n";
  os << "  \"payload_digest\": " << JsonQuoted(DigestHex(ir.ContentDigest())) << ",\n";
  os << "  \"digests\": {\n";
  os << "    \"model\": " << JsonQuoted(DigestHex(ir.model_digest)) << ",\n";
  os << "    \"cluster\": " << JsonQuoted(DigestHex(ir.cluster_digest)) << ",\n";
  os << "    \"compression\": " << JsonQuoted(DigestHex(ir.compression_digest)) << "\n";
  os << "  },\n";
  os << "  \"provenance\": {\n";
  os << "    \"origin\": " << JsonQuoted(ir.provenance.origin) << ",\n";
  os << "    \"selector\": " << JsonQuoted(ir.provenance.selector) << ",\n";
  os << "    \"iteration\": " << ir.provenance.iteration << ",\n";
  os << "    \"drift\": " << FormatDouble(ir.provenance.drift) << "\n";
  os << "  },\n";
  os << "  \"fs_score\": " << FormatDouble(ir.fs_score) << ",\n";
  os << "  \"strategy_fingerprint\": " << JsonQuoted(DigestHex(StrategyFingerprint(ir.strategy)))
     << ",\n";
  os << "  \"tensors\": [";
  for (size_t t = 0; t < ir.strategy.options.size(); ++t) {
    const CompressionOption& option = ir.strategy.options[t];
    os << (t == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"index\": " << t << ",\n";
    os << "      \"label\": " << JsonQuoted(option.label) << ",\n";
    os << "      \"flat\": " << (option.flat ? "true" : "false") << ",\n";
    os << "      \"ops\": [";
    for (size_t i = 0; i < option.ops.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "        ";
      WriteOpJson(os, option.ops[i]);
    }
    os << "\n      ]\n";
    os << "    }";
  }
  os << (ir.strategy.options.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

std::string StrategyIRToString(const StrategyIR& ir) {
  std::ostringstream os;
  WriteStrategyIR(os, ir);
  return os.str();
}

StrategyIRParseResult ParseStrategyIR(std::string_view text,
                                      const StrategyIRParseOptions& options) {
  StrategyIRParseResult result;
  JsonParseResult parsed = ParseJson(text);
  if (!parsed.ok) {
    result.error = parsed.error;
    return result;
  }
  const JsonValue& root = parsed.value;
  std::string* error = &result.error;
  if (!root.IsObject()) {
    *error = LinePrefix(root.line) + "strategy IR must be a JSON object";
    return result;
  }
  // Schema version gates everything else: a future version may rename fields, so the
  // unknown-key check only applies once the version is known to be ours.
  const JsonValue* version = root.Find("espresso_strategy_ir");
  if (version == nullptr) {
    *error = LinePrefix(root.line) +
             "not a strategy IR document (missing 'espresso_strategy_ir')";
    return result;
  }
  int64_t schema_version = 0;
  if (!version->AsInt64(&schema_version)) {
    *error = LinePrefix(version->line) + "'espresso_strategy_ir' must be an integer";
    return result;
  }
  if (schema_version != kStrategyIrSchemaVersion) {
    *error = LinePrefix(version->line) + "unsupported schema version " +
             std::to_string(schema_version) + " (this build reads version " +
             std::to_string(kStrategyIrSchemaVersion) + ")";
    return result;
  }
  result.ir.schema_version = schema_version;
  if (!CheckKeys(root,
                 {"espresso_strategy_ir", "payload_digest", "digests", "provenance",
                  "fs_score", "strategy_fingerprint", "tensors"},
                 error)) {
    return result;
  }

  uint64_t payload_digest = 0;
  const JsonValue* payload_node = root.Find("payload_digest");
  if (!ExpectDigest(root, "payload_digest", &payload_digest, error)) {
    return result;
  }

  const JsonValue* digests = ExpectMember(root, "digests", error);
  if (digests == nullptr) {
    return result;
  }
  if (!digests->IsObject()) {
    *error = LinePrefix(digests->line) + "'digests' must be an object";
    return result;
  }
  if (!CheckKeys(*digests, {"model", "cluster", "compression"}, error) ||
      !ExpectDigest(*digests, "model", &result.ir.model_digest, error) ||
      !ExpectDigest(*digests, "cluster", &result.ir.cluster_digest, error) ||
      !ExpectDigest(*digests, "compression", &result.ir.compression_digest, error)) {
    return result;
  }

  const JsonValue* provenance = ExpectMember(root, "provenance", error);
  if (provenance == nullptr) {
    return result;
  }
  if (!provenance->IsObject()) {
    *error = LinePrefix(provenance->line) + "'provenance' must be an object";
    return result;
  }
  if (!CheckKeys(*provenance, {"origin", "selector", "iteration", "drift"}, error) ||
      !ExpectString(*provenance, "origin", &result.ir.provenance.origin, error) ||
      !ExpectString(*provenance, "selector", &result.ir.provenance.selector, error) ||
      !ExpectUint(*provenance, "iteration", 0, UINT64_MAX, &result.ir.provenance.iteration,
                  error)) {
    return result;
  }
  const JsonValue* drift = ExpectMember(*provenance, "drift", error);
  if (drift == nullptr) {
    return result;
  }
  if (!drift->IsNumber() || !std::isfinite(drift->number) || drift->number < 0.0) {
    *error = LinePrefix(drift->line) + "'drift' must be a finite number >= 0";
    return result;
  }
  result.ir.provenance.drift = drift->number;

  const JsonValue* fs_score = ExpectMember(root, "fs_score", error);
  if (fs_score == nullptr) {
    return result;
  }
  if (!fs_score->IsNumber() || !std::isfinite(fs_score->number) ||
      fs_score->number < 0.0) {
    *error = LinePrefix(fs_score->line) + "'fs_score' must be a finite number >= 0";
    return result;
  }
  result.ir.fs_score = fs_score->number;

  uint64_t fingerprint = 0;
  const JsonValue* fingerprint_node = root.Find("strategy_fingerprint");
  if (!ExpectDigest(root, "strategy_fingerprint", &fingerprint, error)) {
    return result;
  }

  const JsonValue* tensors = ExpectMember(root, "tensors", error);
  if (tensors == nullptr) {
    return result;
  }
  if (!tensors->IsArray()) {
    *error = LinePrefix(tensors->line) + "'tensors' must be an array";
    return result;
  }
  if (tensors->items.size() > kMaxIrTensors) {
    *error = LinePrefix(tensors->line) + "implausible tensor count " +
             std::to_string(tensors->items.size()) + " (limit " +
             std::to_string(kMaxIrTensors) + ")";
    return result;
  }
  result.ir.strategy.options.reserve(tensors->items.size());
  for (size_t t = 0; t < tensors->items.size(); ++t) {
    CompressionOption option;
    if (!ParseTensorJson(tensors->items[t], t, &option, error)) {
      return result;
    }
    result.ir.strategy.options.push_back(std::move(option));
  }

  // Derived-field verification: both values are recomputed from the parsed content,
  // so any in-flight corruption the structural checks missed is caught here.
  // The --force-digest path (verify_payload_digest == false) skips both checks: a
  // hand-edited IR invalidates the fingerprint and the payload digest together, and
  // the caller explicitly accepted that risk. Structural strictness was not relaxed.
  if (options.verify_payload_digest) {
    const uint64_t actual_fingerprint = StrategyFingerprint(result.ir.strategy);
    if (fingerprint != actual_fingerprint) {
      *error = LinePrefix(fingerprint_node->line) +
               "strategy fingerprint mismatch: file says " + DigestHex(fingerprint) +
               ", strategy hashes to " + DigestHex(actual_fingerprint);
      return result;
    }
    const uint64_t actual_digest = result.ir.ContentDigest();
    if (payload_digest != actual_digest) {
      *error = LinePrefix(payload_node->line) + "payload digest mismatch: file says " +
               DigestHex(payload_digest) + ", content hashes to " +
               DigestHex(actual_digest) + " (file corrupted or tampered)";
      return result;
    }
  }
  result.ok = true;
  return result;
}

bool WriteStrategyIRFile(const std::string& path, const StrategyIR& ir,
                         std::string* error) {
  return WriteFileAtomic(path, StrategyIRToString(ir), error);
}

StrategyIRParseResult ReadStrategyIRFile(const std::string& path,
                                         const StrategyIRParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    StrategyIRParseResult result;
    result.error = "cannot open " + path;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StrategyIRParseResult result = ParseStrategyIR(buffer.str(), options);
  if (!result.ok) {
    result.error = path + ": " + result.error;
  }
  return result;
}

}  // namespace espresso
