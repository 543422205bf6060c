#include "src/compress/compressor.h"

#include <algorithm>

#include "src/compress/efsignsgd.h"
#include "src/compress/fp16.h"
#include "src/compress/qsgd.h"
#include "src/compress/randomk.h"
#include "src/compress/terngrad.h"
#include "src/compress/threshold.h"
#include "src/compress/topk.h"
#include "src/util/logging.h"

namespace espresso {

void Compressor::Decompress(const CompressedTensor& in, std::span<float> out) const {
  std::fill(out.begin(), out.end(), 0.0f);
  DecompressAdd(in, out);
}

void Compressor::CompressBatch(std::span<const BatchCompressItem> items) const {
  for (const BatchCompressItem& item : items) {
    Compress({item.data, item.elements}, item.seed, item.out);
  }
}

void Compressor::AggregateCompressed(const CompressedTensor& /*in*/,
                                     CompressedTensor* /*accum*/) const {
  ESP_CHECK(false) << "compressed-domain aggregation is not supported by " << name();
}

bool IsCompressionAlgorithm(std::string_view algorithm) {
  for (const char* known :
       {"randomk", "topk", "dgc", "efsignsgd", "qsgd", "terngrad", "fp16", "threshold"}) {
    if (algorithm == known) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<Compressor> CreateCompressor(const CompressorConfig& config) {
  const std::string& a = config.algorithm;
  if (a == "randomk") {
    return std::make_unique<RandomKCompressor>(config.ratio);
  }
  if (a == "topk" || a == "dgc") {
    return std::make_unique<TopKCompressor>(config.ratio);
  }
  if (a == "efsignsgd") {
    return std::make_unique<EfSignSgdCompressor>();
  }
  if (a == "qsgd") {
    return std::make_unique<QsgdCompressor>(config.bits);
  }
  if (a == "terngrad") {
    return std::make_unique<TernGradCompressor>();
  }
  if (a == "fp16") {
    return std::make_unique<Fp16Compressor>();
  }
  if (a == "threshold") {
    return std::make_unique<ThresholdCompressor>(config.threshold);
  }
  ESP_CHECK(false) << "unknown compression algorithm: " << a;
  return nullptr;
}

}  // namespace espresso
