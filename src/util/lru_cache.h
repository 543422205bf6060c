// Intrusive-list LRU map used by the evaluation cache on the decision algorithm's hot
// path. Single-threaded by design (the thread-safe wrapper lives in
// src/core/eval_cache.h); Get/Put are O(1) amortized. Capacity is fixed at
// construction; inserting into a full cache evicts the least-recently-used entry.
// The index grows on demand; Reserve() sizes it for a full cache up front.
#ifndef SRC_UTIL_LRU_CACHE_H_
#define SRC_UTIL_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "src/util/logging.h"

namespace espresso {

template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    ESP_CHECK_GT(capacity, 0u) << "LruCache requires a positive capacity";
  }

  // Sizes the index for `capacity` entries, so filling the cache never rehashes.
  void Reserve() { map_.reserve(capacity_); }

  // Returns the value and marks the entry most-recently-used, or nullptr on a miss.
  const Value* Get(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Inserts or refreshes `key`; returns true if an older entry was evicted.
  bool Put(const Key& key, Value value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    bool evicted = false;
    if (order_.size() == capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
      evicted = true;
    }
    order_.emplace_front(key, std::move(value));
    map_[key] = order_.begin();
    return evicted;
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }

  void Clear() {
    map_.clear();
    order_.clear();
  }

 private:
  size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator> map_;
};

}  // namespace espresso

#endif  // SRC_UTIL_LRU_CACHE_H_
