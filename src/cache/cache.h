// Byte-bounded node cache for query processors.
//
// The paper uses LRU ("usually implemented as the default cache replacement
// policy, and it favors recent queries — thus it performs well with our smart
// routing schemes"). We implement LRU plus FIFO / LFU / CLOCK alternatives
// for the cache-policy ablation bench, behind one eviction-strategy seam.
//
// Capacity is measured in BYTES (each entry is charged its serialised
// adjacency size), matching the paper's "4 GB cache per processor" framing.
//
// Get hands out a pointer to the stored value instead of a copy, so a hit
// costs no refcount traffic. The pointer stays valid until the next Put,
// Erase or Clear on the same cache (any of which may evict or replace the
// entry); a hit (Get) never invalidates it.

#ifndef GROUTING_SRC_CACHE_CACHE_H_
#define GROUTING_SRC_CACHE_CACHE_H_

#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/check.h"
#include "src/util/node_table.h"

namespace grouting {

enum class CachePolicy {
  kLru,
  kFifo,
  kLfu,
  kClock,
};

std::string CachePolicyName(CachePolicy policy);

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  // entries larger than the whole cache
  uint64_t bytes_evicted = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Single-owner (per-processor) cache mapping NodeId -> V.
template <typename V>
class NodeCache {
 public:
  explicit NodeCache(uint64_t capacity_bytes, CachePolicy policy = CachePolicy::kLru)
      : capacity_bytes_(capacity_bytes), policy_(policy) {}

  // Looks up a node, updating recency/frequency state and hit/miss counters.
  // Returns the stored value (valid until the next Put/Erase/Clear), or
  // nullptr on a miss.
  const V* Get(NodeId key);

  // Probe without touching stats or policy state (for tests / introspection).
  bool Contains(NodeId key) const { return map_.Contains(key); }

  // Inserts (or overwrites) an entry charged `bytes`, evicting per policy
  // until the entry fits. Oversized entries are rejected, not cached.
  void Put(NodeId key, V value, uint64_t bytes);

  void Erase(NodeId key);
  void Clear();

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t size_bytes() const { return size_bytes_; }
  size_t entry_count() const { return map_.size(); }
  CachePolicy policy() const { return policy_; }
  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  struct Entry {
    NodeId key;
    V value;
    uint64_t bytes;
    uint64_t freq = 1;       // LFU
    uint64_t seq = 0;        // LFU tie-break: monotonic insertion order
    bool referenced = true;  // CLOCK
  };
  using EntryList = std::list<Entry>;
  // LFU victim index, ordered by (frequency, insertion seq, key): begin() is
  // the least-frequently-used entry, oldest-inserted first — the same victim
  // the historical O(n) full-list scan picked, found in O(log n).
  using LfuIndex = std::set<std::tuple<uint64_t, uint64_t, NodeId>>;

  void EvictOne();

  // LFU bookkeeping around a frequency bump (no-op for other policies).
  void BumpFreq(Entry& entry) {
    if (policy_ == CachePolicy::kLfu) {
      lfu_index_.erase({entry.freq, entry.seq, entry.key});
      lfu_index_.insert({entry.freq + 1, entry.seq, entry.key});
    }
    entry.freq += 1;
  }

  uint64_t capacity_bytes_;
  CachePolicy policy_;
  uint64_t size_bytes_ = 0;
  CacheStats stats_;
  // entries_ order semantics: front = next eviction candidate region.
  //   LRU  : most-recent at back; evict front.
  //   FIFO : insertion order; evict front.
  //   LFU  : insertion order; eviction via lfu_index_.
  //   CLOCK: circular scan with hand_ and reference bits.
  EntryList entries_;
  NodeTable<typename EntryList::iterator> map_;
  typename EntryList::iterator hand_ = entries_.end();  // CLOCK hand
  LfuIndex lfu_index_;
  uint64_t next_seq_ = 0;
};

// ---- implementation ----

template <typename V>
const V* NodeCache<V>::Get(NodeId key) {
  const auto* slot = map_.Find(key);
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  const auto entry_it = *slot;
  BumpFreq(*entry_it);
  entry_it->referenced = true;
  if (policy_ == CachePolicy::kLru) {
    // Splicing relinks the list node in place: the value's address holds.
    entries_.splice(entries_.end(), entries_, entry_it);  // move to back (MRU)
  }
  return &entry_it->value;
}

template <typename V>
void NodeCache<V>::Put(NodeId key, V value, uint64_t bytes) {
  if (bytes > capacity_bytes_) {
    ++stats_.rejected;
    Erase(key);
    return;
  }
  if (const auto* slot = map_.Find(key); slot != nullptr) {
    // Overwrite in place, adjusting the byte charge. An overwrite is a use:
    // refresh recency/frequency state like a hit would.
    const auto entry_it = *slot;
    size_bytes_ -= entry_it->bytes;
    entry_it->value = std::move(value);
    entry_it->bytes = bytes;
    entry_it->referenced = true;
    BumpFreq(*entry_it);
    size_bytes_ += bytes;
    if (policy_ == CachePolicy::kLru) {
      entries_.splice(entries_.end(), entries_, entry_it);
    }
  } else {
    entries_.push_back(Entry{key, std::move(value), bytes});
    entries_.back().seq = next_seq_++;
    map_.Insert(key, std::prev(entries_.end()));
    if (policy_ == CachePolicy::kLfu) {
      lfu_index_.insert({entries_.back().freq, entries_.back().seq, key});
    }
    size_bytes_ += bytes;
    ++stats_.inserts;
  }
  while (size_bytes_ > capacity_bytes_) {
    EvictOne();
  }
}

template <typename V>
void NodeCache<V>::EvictOne() {
  GROUTING_CHECK(!entries_.empty());
  typename EntryList::iterator victim;
  switch (policy_) {
    case CachePolicy::kLru:
    case CachePolicy::kFifo:
      victim = entries_.begin();
      break;
    case CachePolicy::kLfu: {
      GROUTING_CHECK(!lfu_index_.empty());
      const auto* slot = map_.Find(std::get<2>(*lfu_index_.begin()));
      GROUTING_CHECK(slot != nullptr);
      victim = *slot;
      break;
    }
    case CachePolicy::kClock: {
      if (hand_ == entries_.end()) {
        hand_ = entries_.begin();
      }
      // Sweep, clearing reference bits, until an unreferenced entry appears.
      while (hand_->referenced) {
        hand_->referenced = false;
        ++hand_;
        if (hand_ == entries_.end()) {
          hand_ = entries_.begin();
        }
      }
      victim = hand_;
      ++hand_;
      if (hand_ == entries_.end() && entries_.size() > 1) {
        hand_ = entries_.begin();
      }
      break;
    }
  }
  size_bytes_ -= victim->bytes;
  stats_.bytes_evicted += victim->bytes;
  ++stats_.evictions;
  if (policy_ == CachePolicy::kLfu) {
    lfu_index_.erase({victim->freq, victim->seq, victim->key});
  }
  map_.Erase(victim->key);
  if (hand_ == victim) {
    hand_ = entries_.end();
  }
  entries_.erase(victim);
}

template <typename V>
void NodeCache<V>::Erase(NodeId key) {
  const auto* slot = map_.Find(key);
  if (slot == nullptr) {
    return;
  }
  const auto entry_it = *slot;
  if (hand_ == entry_it) {
    hand_ = entries_.end();
  }
  if (policy_ == CachePolicy::kLfu) {
    lfu_index_.erase({entry_it->freq, entry_it->seq, key});
  }
  size_bytes_ -= entry_it->bytes;
  entries_.erase(entry_it);
  map_.Erase(key);
}

template <typename V>
void NodeCache<V>::Clear() {
  entries_.clear();
  map_.Clear();
  lfu_index_.clear();
  size_bytes_ = 0;
  hand_ = entries_.end();
}

}  // namespace grouting

#endif  // GROUTING_SRC_CACHE_CACHE_H_
