#include "src/util/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace espresso {

namespace internal {
long g_atomic_write_fail_after_bytes = -1;
}  // namespace internal

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// Thread-safe strerror: std::strerror's static buffer races when two writers fail
// concurrently (concurrency-mt-unsafe). The overload pair absorbs both strerror_r
// variants — GNU returns the message pointer, XSI returns 0 on success into buf —
// without caring which one the libc provides.
[[maybe_unused]] const char* StrerrorResult(char* result, const char* /*buf*/) {
  return result;
}
[[maybe_unused]] const char* StrerrorResult(int result, const char* buf) {
  return result == 0 ? buf : nullptr;
}

std::string ErrnoMessage(int err) {
  char buf[256] = {};
  const char* message = StrerrorResult(strerror_r(err, buf, sizeof(buf)), buf);
  return message != nullptr ? std::string(message)
                            : "errno " + std::to_string(err);
}

}  // namespace

bool WriteFileAtomic(const std::string& path, std::string_view content,
                     std::string* error) {
  // The temp file must live in the destination's directory: rename(2) is only atomic
  // within one filesystem. The pid suffix keeps concurrent writers from clobbering
  // each other's in-flight temp files.
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    SetError(error, "cannot create " + tmp_path + ": " + ErrnoMessage(errno));
    return false;
  }

  size_t to_write = content.size();
  bool simulated_crash = false;
  if (internal::g_atomic_write_fail_after_bytes >= 0) {
    const size_t cap = static_cast<size_t>(internal::g_atomic_write_fail_after_bytes);
    if (cap < to_write) {
      to_write = cap;
      simulated_crash = true;
    }
    internal::g_atomic_write_fail_after_bytes = -1;
  }

  const size_t written =
      to_write == 0 ? 0 : std::fwrite(content.data(), 1, to_write, f);
  bool ok = written == to_write && !simulated_crash;
  if (ok && std::fflush(f) != 0) {
    ok = false;
  }
  // Push the bytes to stable storage before publishing the name: a crash between
  // rename and writeback must not surface an empty renamed file.
  if (ok && ::fsync(::fileno(f)) != 0) {
    ok = false;
  }
  if (std::fclose(f) != 0) {
    ok = false;
  }
  if (!ok) {
    std::remove(tmp_path.c_str());
    SetError(error, simulated_crash
                        ? "simulated crash while writing " + tmp_path
                        : "short write to " + tmp_path + ": " + ErrnoMessage(errno));
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string reason = ErrnoMessage(errno);
    std::remove(tmp_path.c_str());
    SetError(error, "cannot rename " + tmp_path + " to " + path + ": " + reason);
    return false;
  }
  return true;
}

}  // namespace espresso
