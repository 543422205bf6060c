// Arena: a monotonic scratch allocator for call-scoped, trivially-destructible data.
//
// The execution dataplane needs many tiny ephemeral buffers per collective call —
// delivery flags, group index lists. Individually pooling them
// would drown the pool in bucket churn; instead they come from an arena that is bumped
// during the call and rewound afterwards. Blocks are never freed by a rewind, so after
// one warm-up pass the arena serves every subsequent call without touching the heap.
//
// Ownership convention (docs/MEMORY.md): spans returned by Alloc are valid until the
// enclosing ArenaScope (or ResetTo on an earlier mark) rewinds past them. Nested scopes
// are the intended pattern for nested calls.
#ifndef SRC_MEM_ARENA_H_
#define SRC_MEM_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace espresso::mem {

class Arena {
 public:
  // Position mark for scoped rewind: (block index, bytes used in that block).
  struct Mark {
    size_t block = 0;
    size_t used = 0;
  };

  explicit Arena(size_t initial_block_bytes = 4096)
      : min_block_bytes_(initial_block_bytes == 0 ? 4096 : initial_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Uninitialized storage for `count` objects of T. T must be trivially destructible
  // (nothing runs destructors) and trivially copyable (nothing runs constructors).
  template <typename T>
  std::span<T> Alloc(size_t count) {
    static_assert(std::is_trivially_destructible_v<T> && std::is_trivially_copyable_v<T>,
                  "Arena only holds trivial types");
    void* p = AllocBytes(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  // Zero-filled variant.
  template <typename T>
  std::span<T> AllocZeroed(size_t count) {
    std::span<T> s = Alloc<T>(count);
    std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

  Mark CurrentMark() const { return Mark{current_, CurrentUsed()}; }

  // Rewinds to `mark`; every block keeps its storage. Spans handed out after the mark
  // are invalidated.
  void ResetTo(const Mark& mark);

  // Rewinds everything (equivalent to ResetTo of a fresh arena's mark).
  void Reset() { ResetTo(Mark{0, 0}); }

  size_t bytes_capacity() const;
  size_t bytes_high_water() const { return high_water_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  void* AllocBytes(size_t bytes, size_t align);
  size_t CurrentUsed() const {
    return blocks_.empty() ? 0 : blocks_[current_].used;
  }

  std::vector<Block> blocks_;
  size_t current_ = 0;  // block currently being bumped
  size_t min_block_bytes_;
  size_t high_water_ = 0;  // max total bytes in use at any point
};

// RAII rewind to the arena position captured at construction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.CurrentMark()) {}
  ~ArenaScope() { arena_.ResetTo(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace espresso::mem

#endif  // SRC_MEM_ARENA_H_
