// Crash-safe file publication: write to an adjacent temporary file, flush + fsync,
// then rename over the destination. On POSIX the rename is atomic within a filesystem,
// so a reader (or a crashed writer) can never observe a torn file — it sees either the
// complete old contents or the complete new contents. This is the publication
// primitive under every strategy artifact (strategy IR JSON): the offline/online
// hand-off must survive a writer dying mid-write.
#ifndef SRC_UTIL_ATOMIC_FILE_H_
#define SRC_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

namespace espresso {

// Atomically replaces `path` with `content`. Returns false (and fills `error`, when
// non-null) on any failure; the previous contents of `path`, if any, are left intact
// and no temporary file is leaked.
bool WriteFileAtomic(const std::string& path, std::string_view content,
                     std::string* error = nullptr);

namespace internal {
// Test hook simulating a writer crash: when >= 0, WriteFileAtomic stops after writing
// this many bytes of the temporary file and reports failure (cleaning the temp up, as
// the surviving filesystem state after a real crash + tmp-file sweep would look).
// Reset to -1 after each triggered failure.
extern long g_atomic_write_fail_after_bytes;
}  // namespace internal

}  // namespace espresso

#endif  // SRC_UTIL_ATOMIC_FILE_H_
