#include "src/mem/arena.h"

#include <algorithm>
#include <bit>

#include "src/util/logging.h"

namespace espresso::mem {

void* Arena::AllocBytes(size_t bytes, size_t align) {
  if (bytes == 0) {
    bytes = 1;  // keep spans distinct and the bump pointer monotone
  }
  // Try the current block, then any later (already-allocated) block, then grow.
  for (;;) {
    if (current_ < blocks_.size()) {
      Block& b = blocks_[current_];
      // Align the absolute address, not the block offset: make_unique only promises
      // malloc alignment for the block base.
      const uintptr_t base = reinterpret_cast<uintptr_t>(b.data.get());
      const size_t aligned =
          ((base + b.used + align - 1) & ~(uintptr_t{align} - 1)) - base;
      if (aligned + bytes <= b.capacity) {
        b.used = aligned + bytes;
        size_t total = 0;
        for (size_t i = 0; i <= current_; ++i) {
          total += blocks_[i].used;
        }
        high_water_ = std::max(high_water_, total);
        return b.data.get() + aligned;
      }
      if (current_ + 1 < blocks_.size()) {
        ++current_;
        blocks_[current_].used = 0;
        continue;
      }
    }
    // Grow: new blocks double so steady state converges to very few blocks.
    const size_t want = std::max({min_block_bytes_, bytes + align,
                                  bytes_capacity() == 0 ? 0 : bytes_capacity()});
    Block block;
    block.capacity = std::bit_ceil(want);
    block.data = std::make_unique<std::byte[]>(block.capacity);
    block.used = 0;
    blocks_.push_back(std::move(block));
    current_ = blocks_.size() - 1;
  }
}

void Arena::ResetTo(const Mark& mark) {
  if (blocks_.empty()) {
    return;
  }
  ESP_CHECK_LE(mark.block, blocks_.size() - 1);
  for (size_t i = mark.block + 1; i < blocks_.size(); ++i) {
    blocks_[i].used = 0;
  }
  blocks_[mark.block].used = mark.used;
  current_ = mark.block;
}

size_t Arena::bytes_capacity() const {
  size_t total = 0;
  for (const Block& b : blocks_) {
    total += b.capacity;
  }
  return total;
}

}  // namespace espresso::mem
