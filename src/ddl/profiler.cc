#include "src/ddl/profiler.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace espresso {

ModelProfileResult ProfileModel(const ModelProfile& ground_truth, size_t iterations,
                                double jitter, uint64_t seed) {
  ESP_CHECK_GT(iterations, 0u);
  const size_t n = ground_truth.tensors.size();
  Rng rng(seed);

  std::vector<double> sum(n, 0.0);
  std::vector<double> sum_sq(n, 0.0);
  for (size_t it = 0; it < iterations; ++it) {
    for (size_t i = 0; i < n; ++i) {
      // One trace sample: the true computation time perturbed by run-to-run noise
      // (kernel scheduling, clocks). Clamped so a pathological draw stays positive.
      // Zero jitter draws nothing: a normal distribution needs a positive stddev.
      const double factor =
          jitter == 0.0 ? 1.0 : std::max(0.1, 1.0 + rng.Normal(0.0, jitter));
      const double sample = ground_truth.tensors[i].backward_time_s * factor;
      sum[i] += sample;
      sum_sq[i] += sample * sample;
    }
  }

  ModelProfileResult result;
  result.profile = ground_truth;
  result.iterations = iterations;
  for (size_t i = 0; i < n; ++i) {
    const double mean = sum[i] / static_cast<double>(iterations);
    result.profile.tensors[i].backward_time_s = mean;
    const double variance =
        std::max(0.0, sum_sq[i] / static_cast<double>(iterations) - mean * mean);
    if (mean > 0.0) {
      result.max_normalized_stddev =
          std::max(result.max_normalized_stddev, std::sqrt(variance) / mean);
    }
  }
  return result;
}

CompressorProfileResult ProfileCompressor(const Compressor& compressor,
                                          const std::vector<size_t>& sizes,
                                          size_t repetitions, uint64_t seed) {
  ESP_CHECK(!sizes.empty());
  ESP_CHECK_GT(repetitions, 0u);
  CompressorProfileResult result;
  Rng rng(seed);

  for (size_t elements : sizes) {
    std::vector<float> input(elements);
    rng.FillNormal(input, 0.0, 1.0);
    std::vector<float> output(elements, 0.0f);
    CompressedTensor payload;

    // Warm-up (first-touch faults, allocator).
    compressor.Compress(input, seed, &payload);
    compressor.Decompress(payload, output);

    CompressorProfilePoint point;
    point.elements = elements;
    const auto c0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repetitions; ++r) {
      compressor.Compress(input, seed + r, &payload);
    }
    const auto c1 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repetitions; ++r) {
      compressor.DecompressAdd(payload, output);
    }
    const auto c2 = std::chrono::steady_clock::now();
    point.compress_seconds =
        std::chrono::duration<double>(c1 - c0).count() / static_cast<double>(repetitions);
    point.decompress_seconds =
        std::chrono::duration<double>(c2 - c1).count() / static_cast<double>(repetitions);
    result.points.push_back(point);
  }

  // Least-squares fit of time = a + b * bytes over the measured points; the throughput
  // entries of DeviceCostSpec are 1/b and the launch overhead is a (clamped to >= 0).
  auto fit = [&](bool compress) {
    const auto n = static_cast<double>(result.points.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto& p : result.points) {
      const double x = static_cast<double>(p.elements) * sizeof(float);
      const double y = compress ? p.compress_seconds : p.decompress_seconds;
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double denom = n * sxx - sx * sx;
    double b = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
    double a = (sy - b * sx) / n;
    if (b <= 0.0) {
      // Degenerate fit (all sizes equal or timer noise): fall back to mean throughput.
      b = sy > 0.0 ? sy / std::max(sx, 1.0) : 1e-12;
    }
    return std::make_pair(std::max(0.0, a), 1.0 / b);
  };
  const auto [comp_overhead, comp_throughput] = fit(true);
  const auto [decomp_overhead, decomp_throughput] = fit(false);
  result.fitted.launch_overhead_s = std::max(comp_overhead, decomp_overhead);
  result.fitted.compress_bytes_per_s = comp_throughput;
  result.fitted.decompress_bytes_per_s = decomp_throughput;
  return result;
}

}  // namespace espresso
