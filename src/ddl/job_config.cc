#include "src/ddl/job_config.h"

#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

#include "src/models/model_zoo.h"
#include "src/util/parse_number.h"

namespace espresso {

namespace {

JobConfigResult Fail(const std::string& message) {
  JobConfigResult result;
  result.error = message;
  return result;
}

// Reads an optional number with `parse`. A present value that does not parse is an
// error, not an absent key: read as absent, "machines = four" would quietly select for
// the testbed's default machine count. *out is set only when the key is present.
template <typename T>
bool ReadNumber(const ConfigFile& file, std::string_view section, std::string_view key,
                NumberParse (*parse)(std::string_view, T*), std::optional<T>* out,
                std::string* error) {
  const auto text = file.Get(section, key);
  if (!text) {
    return true;
  }
  T value{};
  const NumberParse status = parse(*text, &value);
  if (status != NumberParse::kOk) {
    *error = std::string(key) + " = '" + *text + "' " +
             (std::is_integral_v<T> && status == NumberParse::kMalformed
                  ? "is not an integer"
                  : NumberParseMessage(status));
    return false;
  }
  *out = value;
  return true;
}

// Reads an optional count that must be at least `min`. The bound is checked on the
// signed value, before the cast, so "-1" cannot become 2^64 - 1.
bool ReadCount(const ConfigFile& file, std::string_view section, std::string_view key,
               int64_t min, size_t* out, std::string* error) {
  std::optional<int64_t> v;
  if (!ReadNumber(file, section, key, ParseInt64, &v, error)) {
    return false;
  }
  if (!v) {
    return true;
  }
  if (*v < min) {
    *error = std::string(key) + " must be at least " + std::to_string(min);
    return false;
  }
  *out = static_cast<size_t>(*v);
  return true;
}

enum class Sign { kPositive, kNonNegative };

// Reads an optional floating-point field and stores it times `scale`. The stored value
// must be finite and positive (or non-negative), so a huge rate cannot scale to
// infinity either.
bool ReadReal(const ConfigFile& file, std::string_view section, std::string_view key,
              Sign sign, double scale, double* out, std::string* error) {
  std::optional<double> v;
  if (!ReadNumber(file, section, key, ParseDouble, &v, error)) {
    return false;
  }
  if (!v) {
    return true;
  }
  const double value = *v * scale;
  if (!std::isfinite(value) || value < 0.0 || (sign == Sign::kPositive && value == 0.0)) {
    *error = std::string(key) + (sign == Sign::kPositive ? " must be finite and positive"
                                                         : " must be finite and non-negative");
    return false;
  }
  *out = value;
  return true;
}

bool ParseModel(const ConfigFile& file, ModelProfile* model, std::string* error) {
  if (const auto name = file.Get("model", "name")) {
    std::optional<ModelProfile> zoo = FindModel(*name);
    if (!zoo) {
      *error = "unknown model '" + *name + "'";
      return false;
    }
    *model = *std::move(zoo);
  } else {
    model->name = file.GetOr("model", "label", "custom");
    model->tensors.clear();
  }
  if (!ReadReal(file, "model", "forward_ms", Sign::kNonNegative, 1e-3,
                &model->forward_time_s, error) ||
      !ReadReal(file, "model", "optimizer_ms", Sign::kNonNegative, 1e-3,
                &model->optimizer_time_s, error) ||
      !ReadCount(file, "model", "batch_size", 0, &model->batch_size, error)) {
    return false;
  }
  if (const auto v = file.Get("model", "unit")) {
    model->throughput_unit = *v;
  }
  // Custom tensor list (backward order): "name = elements, backward_ms".
  const auto tensors = file.Entries("tensors");
  if (!tensors.empty()) {
    model->tensors.clear();
    for (const auto& [name, value] : tensors) {
      const auto fields = SplitFields(value, ",");
      if (fields.size() != 2) {
        *error = "tensor '" + name + "': expected 'elements, backward_ms'";
        return false;
      }
      TensorSpec spec;
      spec.name = name;
      uint64_t elements = 0;
      const NumberParse elements_status = ParseUint64(fields[0], &elements);
      if (elements_status != NumberParse::kOk) {
        *error = "tensor '" + name + "': elements " +
                 NumberParseMessage(elements_status);
        return false;
      }
      double backward_ms = 0.0;
      const NumberParse backward_status = ParseDouble(fields[1], &backward_ms);
      if (backward_status != NumberParse::kOk) {
        *error = "tensor '" + name + "': backward_ms " +
                 NumberParseMessage(backward_status);
        return false;
      }
      spec.elements = static_cast<size_t>(elements);
      spec.backward_time_s = backward_ms * 1e-3;
      if (spec.elements == 0 || !std::isfinite(backward_ms) || backward_ms <= 0.0) {
        *error = "tensor '" + name + "': elements and backward_ms must be positive and finite";
        return false;
      }
      model->tensors.push_back(std::move(spec));
    }
  }
  if (model->tensors.empty()) {
    *error = "model file needs either [model] name = <zoo model> or a [tensors] section";
    return false;
  }
  return true;
}

bool ParseCompression(const ConfigFile& file, CompressorConfig* config,
                      size_t* max_compress_ops, std::string* error) {
  config->algorithm = file.GetOr("compression", "algorithm", "randomk");
  if (!IsCompressionAlgorithm(config->algorithm)) {
    *error = "unknown compression algorithm '" + config->algorithm + "'";
    return false;
  }
  config->bits = 4;  // QSGD default when the file does not set one
  std::optional<double> ratio;
  std::optional<int64_t> bits;
  if (!ReadNumber(file, "compression", "ratio", ParseDouble, &ratio, error) ||
      !ReadNumber(file, "compression", "bits", ParseInt64, &bits, error)) {
    return false;
  }
  if (ratio) {
    config->ratio = *ratio;
  }
  if (bits) {
    if (*bits < 1 || *bits > 7) {
      *error = "compression bits must be in [1, 7]";
      return false;
    }
    config->bits = static_cast<int>(*bits);
  }
  if (!ReadReal(file, "compression", "threshold", Sign::kPositive, 1.0,
                &config->threshold, error) ||
      !ReadCount(file, "compression", "max_compress_ops", 0, max_compress_ops, error)) {
    return false;
  }
  if (!(config->ratio > 0.0 && config->ratio <= 1.0)) {
    *error = "compression ratio must be in (0, 1]";
    return false;
  }
  return true;
}

bool ParseCluster(const ConfigFile& file, ClusterSpec* cluster, std::string* error) {
  const std::string testbed = file.GetOr("cluster", "testbed", "nvlink");
  if (testbed == "nvlink") {
    *cluster = NvlinkCluster();
  } else if (testbed == "pcie") {
    *cluster = PcieCluster();
  } else {
    *error = "unknown testbed '" + testbed + "' (expected nvlink or pcie)";
    return false;
  }
  constexpr double kGbps = 1e9 / 8.0;  // Gb/s -> bytes/s
  constexpr double kUs = 1e-6;
  if (!ReadCount(file, "cluster", "machines", 1, &cluster->machines, error) ||
      !ReadCount(file, "cluster", "gpus_per_machine", 1, &cluster->gpus_per_machine,
                 error) ||
      !ReadCount(file, "cluster", "cpu_workers_per_gpu", 1, &cluster->cpu_workers_per_gpu,
                 error) ||
      !ReadReal(file, "cluster", "inter_gbps", Sign::kPositive, kGbps,
                &cluster->inter.bytes_per_second, error) ||
      !ReadReal(file, "cluster", "intra_gbps", Sign::kPositive, kGbps,
                &cluster->intra.bytes_per_second, error) ||
      !ReadReal(file, "cluster", "inter_latency_us", Sign::kNonNegative, kUs,
                &cluster->inter.latency_s, error) ||
      !ReadReal(file, "cluster", "intra_latency_us", Sign::kNonNegative, kUs,
                &cluster->intra.latency_s, error)) {
    return false;
  }
  if (const auto text = file.Get("cluster", "host_copy_contends_intra")) {
    const auto v = file.GetBool("cluster", "host_copy_contends_intra");
    if (!v) {
      *error = "host_copy_contends_intra = '" + *text + "' is not a boolean";
      return false;
    }
    cluster->host_copy_contends_intra = *v;
  }
  return true;
}

}  // namespace

JobConfigResult LoadJobConfig(const ConfigFile& model_file, const ConfigFile& gc_file,
                              const ConfigFile& system_file) {
  if (!model_file.ok()) {
    return Fail("model config: " + model_file.error());
  }
  if (!gc_file.ok()) {
    return Fail("gc config: " + gc_file.error());
  }
  if (!system_file.ok()) {
    return Fail("system config: " + system_file.error());
  }
  JobConfigResult result;
  std::string error;
  if (!ParseModel(model_file, &result.job.model, &error)) {
    return Fail("model config: " + error);
  }
  if (!ParseCompression(gc_file, &result.job.compressor, &result.job.max_compress_ops,
                        &error)) {
    return Fail("gc config: " + error);
  }
  if (!ParseCluster(system_file, &result.job.cluster, &error)) {
    return Fail("system config: " + error);
  }
  result.ok = true;
  return result;
}

JobConfigResult LoadJobConfigFromFiles(const std::string& model_path,
                                       const std::string& gc_path,
                                       const std::string& system_path) {
  return LoadJobConfig(ConfigFile::Load(model_path), ConfigFile::Load(gc_path),
                       ConfigFile::Load(system_path));
}

}  // namespace espresso
