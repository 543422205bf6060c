// Runtime-check facilities shared by every Espresso module: ESP_CHECK and its
// comparison forms abort the process with the failed condition and its location.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace espresso {

namespace internal {

// Accumulates one check-failure message and aborts the process on destruction. Used
// by ESP_CHECK.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

}  // namespace espresso

// Fatal invariant check. Always on (including release builds): the decision algorithm's
// correctness arguments (Lemma 1, pruning rules) rely on these holding at runtime.
#define ESP_CHECK(condition)                                                            \
  if (condition) {                                                                      \
  } else                                                                                \
    ::espresso::internal::FatalMessage(__FILE__, __LINE__, #condition).stream()

#define ESP_CHECK_EQ(a, b) ESP_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define ESP_CHECK_NE(a, b) ESP_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define ESP_CHECK_LE(a, b) ESP_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define ESP_CHECK_LT(a, b) ESP_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define ESP_CHECK_GE(a, b) ESP_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define ESP_CHECK_GT(a, b) ESP_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "

#endif  // SRC_UTIL_LOGGING_H_
