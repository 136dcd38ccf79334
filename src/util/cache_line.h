// Cache-line layout helpers for values that several threads write.
//
// A counter or lock that several threads write, placed next to data that
// other threads write, makes each write invalidate the neighbours' line too
// (false sharing). Wrapping it in CacheLinePadded gives it the whole line:
// its address and size are multiples of kCacheLineBytes, in arrays as well
// as in structs.
//
// Padding cannot help a counter that several threads write itself (true
// sharing): every write still moves the line. ShardedCounters gives each
// writer (a "reader" of the storage tier, in its callers' terms) a shard of
// its own, starting on a line of its own, and sums the shards on demand.

#ifndef GROUTING_SRC_UTIL_CACHE_LINE_H_
#define GROUTING_SRC_UTIL_CACHE_LINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/util/check.h"

namespace grouting {

// x86-64 and most ARM64 cores; a larger line only means two values share one.
inline constexpr size_t kCacheLineBytes = 64;

template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value{};
};

// `shards` x `width` relaxed 64-bit counters, all zero at construction.
// Shard s's counters are packed together and share lines only with each
// other. A shard may still be written by several threads (every write is an
// atomic read-modify-write); the point is that threads with shards of their
// own never touch each other's lines. Sums over shards are exact once the
// writers have stopped, and a consistent-enough snapshot while they run.
class ShardedCounters {
 public:
  ShardedCounters() = default;
  ShardedCounters(uint32_t shards, uint32_t width)
      : shards_(shards),
        width_(width),
        lines_per_shard_((width + kPerLine - 1) / kPerLine),
        lines_(std::make_unique<Line[]>(static_cast<size_t>(shards) * lines_per_shard_)) {
    GROUTING_CHECK(shards > 0 && width > 0);
  }

  uint32_t shards() const { return shards_; }

  std::atomic<uint64_t>& at(uint32_t shard, uint32_t i) {
    GROUTING_DCHECK(shard < shards_ && i < width_);
    return lines_[static_cast<size_t>(shard) * lines_per_shard_ + i / kPerLine]
        .cell[i % kPerLine];
  }
  const std::atomic<uint64_t>& at(uint32_t shard, uint32_t i) const {
    return const_cast<ShardedCounters*>(this)->at(shard, i);
  }

  // Counter i summed over every shard.
  uint64_t Sum(uint32_t i) const {
    uint64_t sum = 0;
    for (uint32_t s = 0; s < shards_; ++s) {
      sum += at(s, i).load(std::memory_order_relaxed);
    }
    return sum;
  }

  // Counter i summed over every shard, each shard's count zeroed as it is
  // read: no increment is lost or counted twice.
  uint64_t ExchangeSum(uint32_t i) {
    uint64_t sum = 0;
    for (uint32_t s = 0; s < shards_; ++s) {
      sum += at(s, i).exchange(0, std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  static constexpr uint32_t kPerLine = kCacheLineBytes / sizeof(uint64_t);
  struct alignas(kCacheLineBytes) Line {
    std::atomic<uint64_t> cell[kPerLine] = {};
  };

  uint32_t shards_ = 0;
  uint32_t width_ = 0;
  uint32_t lines_per_shard_ = 0;
  std::unique_ptr<Line[]> lines_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_CACHE_LINE_H_
