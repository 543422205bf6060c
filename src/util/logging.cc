#include "src/util/logging.h"

#include <iostream>

namespace espresso {

namespace internal {

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: " << condition << " ";
}

FatalMessage::~FatalMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::abort();
}

}  // namespace internal

}  // namespace espresso
