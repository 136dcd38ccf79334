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
//
// Entries live in a slab of chunks. The eviction order is a doubly linked
// list of 32-bit slot indices threaded through the entries, freed slots go
// on a free list, and the NodeTable maps each key to its slot. An install
// therefore allocates no list node and an eviction frees none; only slab
// growth or the index tables allocate. The first chunk is sized by use: it
// starts at kFirstChunkEntries slots and doubles whenever every slot is in
// use, until it holds kChunkEntries, so a cache that holds a few entries
// never pays for a full chunk. Doubling moves the entries (only a Put can
// do that, which the Get contract above allows) but keeps every slot index,
// so no link and no eviction order changes. Later chunks are full-size and
// never move: once a cache holds kChunkEntries entries, addresses hold for
// an entry's whole life.

#ifndef GROUTING_SRC_CACHE_CACHE_H_
#define GROUTING_SRC_CACHE_CACHE_H_

#include <cstdint>
#include <memory>
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
  // Entries per full slab chunk. The first chunk grows from
  // kFirstChunkEntries to this by doubling; each later chunk is allocated
  // full when every slot of the previous ones is in use, and is never moved
  // or freed before Clear.
  static constexpr uint32_t kChunkEntries = 1024;
  static constexpr uint32_t kFirstChunkEntries = 16;
  static_assert(kChunkEntries % kFirstChunkEntries == 0 &&
                    ((kChunkEntries / kFirstChunkEntries) &
                     (kChunkEntries / kFirstChunkEntries - 1)) == 0,
                "doubling the first chunk must land on kChunkEntries");

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
  // Slab slot index; kNil ends a list (the list's "end()").
  using Index = uint32_t;
  static constexpr Index kNil = ~Index{0};

  struct Entry {
    V value{};
    uint64_t bytes = 0;
    uint64_t freq = 1;  // LFU
    uint64_t seq = 0;   // LFU tie-break: monotonic insertion order
    NodeId key = 0;
    Index prev = kNil;  // entry order; `next` also links the free list
    Index next = kNil;
    bool referenced = true;  // CLOCK
  };
  // LFU victim index, ordered by (frequency, insertion seq, key): begin() is
  // the least-frequently-used entry, oldest-inserted first — the same victim
  // the historical O(n) full-list scan picked, found in O(log n).
  using LfuIndex = std::set<std::tuple<uint64_t, uint64_t, NodeId>>;

  Entry& At(Index i) { return chunks_[i / kChunkEntries][i % kChunkEntries]; }

  // Takes a slot off the free list, or the next never-used one (growing the
  // slab when all are in use), and links it at the back of the order.
  Index Allocate();
  // Makes room for one more slot: doubles the first chunk, moving its
  // entries to the same indices, until it is full-size; then appends a
  // full-size chunk.
  void Grow();
  // Unlinks the slot, drops its value and pushes it on the free list.
  void Release(Index i);
  void Unlink(Index i);
  void LinkBack(Index i);
  void MoveToBack(Index i) {
    if (i != tail_) {
      Unlink(i);
      LinkBack(i);
    }
  }

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
  // Entry order, head_ to tail_ (front = next eviction candidate region):
  //   LRU  : most-recent at back; evict front.
  //   FIFO : insertion order; evict front.
  //   LFU  : insertion order; eviction via lfu_index_.
  //   CLOCK: circular scan with hand_ and reference bits.
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Index slots_ = 0;       // slots the chunks hold
  Index used_slots_ = 0;  // slots ever handed out since the last Clear
  Index free_head_ = kNil;
  Index head_ = kNil;
  Index tail_ = kNil;
  NodeTable<Index> map_;
  Index hand_ = kNil;  // CLOCK hand; kNil = restart from the front
  LfuIndex lfu_index_;
  uint64_t next_seq_ = 0;
};

// ---- implementation ----

template <typename V>
typename NodeCache<V>::Index NodeCache<V>::Allocate() {
  Index i = free_head_;
  if (i != kNil) {
    free_head_ = At(i).next;
  } else {
    GROUTING_CHECK(used_slots_ < kNil);
    if (used_slots_ == slots_) {
      Grow();
    }
    i = used_slots_++;
  }
  LinkBack(i);
  return i;
}

template <typename V>
void NodeCache<V>::Grow() {
  if (slots_ >= kChunkEntries) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunkEntries));
    slots_ += kChunkEntries;
    return;
  }
  const Index grown = slots_ == 0 ? kFirstChunkEntries : 2 * slots_;
  auto first = std::make_unique<Entry[]>(grown);
  for (Index k = 0; k < used_slots_; ++k) {
    first[k] = std::move(chunks_[0][k]);
  }
  if (chunks_.empty()) {
    chunks_.push_back(std::move(first));
  } else {
    chunks_[0] = std::move(first);
  }
  slots_ = grown;
}

template <typename V>
void NodeCache<V>::Release(Index i) {
  Unlink(i);
  Entry& entry = At(i);
  entry.value = V{};  // a free slot holds no resources
  entry.next = free_head_;
  free_head_ = i;
}

template <typename V>
void NodeCache<V>::Unlink(Index i) {
  Entry& entry = At(i);
  (entry.prev == kNil ? head_ : At(entry.prev).next) = entry.next;
  (entry.next == kNil ? tail_ : At(entry.next).prev) = entry.prev;
}

template <typename V>
void NodeCache<V>::LinkBack(Index i) {
  Entry& entry = At(i);
  entry.prev = tail_;
  entry.next = kNil;
  (tail_ == kNil ? head_ : At(tail_).next) = i;
  tail_ = i;
}

template <typename V>
const V* NodeCache<V>::Get(NodeId key) {
  const Index* slot = map_.Find(key);
  if (slot == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  const Index i = *slot;
  Entry& entry = At(i);
  BumpFreq(entry);
  entry.referenced = true;
  if (policy_ == CachePolicy::kLru) {
    MoveToBack(i);  // relinks the slot in place: the value's address holds
  }
  return &entry.value;
}

template <typename V>
void NodeCache<V>::Put(NodeId key, V value, uint64_t bytes) {
  if (bytes > capacity_bytes_) {
    ++stats_.rejected;
    Erase(key);
    return;
  }
  if (const Index* slot = map_.Find(key); slot != nullptr) {
    // Overwrite in place, adjusting the byte charge. An overwrite is a use:
    // refresh recency/frequency state like a hit would.
    const Index i = *slot;
    Entry& entry = At(i);
    size_bytes_ -= entry.bytes;
    entry.value = std::move(value);
    entry.bytes = bytes;
    entry.referenced = true;
    BumpFreq(entry);
    size_bytes_ += bytes;
    if (policy_ == CachePolicy::kLru) {
      MoveToBack(i);
    }
  } else {
    const Index i = Allocate();
    Entry& entry = At(i);
    entry.key = key;
    entry.value = std::move(value);
    entry.bytes = bytes;
    entry.freq = 1;
    entry.seq = next_seq_++;
    entry.referenced = true;
    map_.Insert(key, i);
    if (policy_ == CachePolicy::kLfu) {
      lfu_index_.insert({entry.freq, entry.seq, key});
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
  GROUTING_CHECK(head_ != kNil);
  Index victim = kNil;
  switch (policy_) {
    case CachePolicy::kLru:
    case CachePolicy::kFifo:
      victim = head_;
      break;
    case CachePolicy::kLfu: {
      GROUTING_CHECK(!lfu_index_.empty());
      const Index* slot = map_.Find(std::get<2>(*lfu_index_.begin()));
      GROUTING_CHECK(slot != nullptr);
      victim = *slot;
      break;
    }
    case CachePolicy::kClock: {
      if (hand_ == kNil) {
        hand_ = head_;
      }
      // Sweep, clearing reference bits, until an unreferenced entry appears.
      while (At(hand_).referenced) {
        At(hand_).referenced = false;
        hand_ = At(hand_).next == kNil ? head_ : At(hand_).next;
      }
      victim = hand_;
      hand_ = At(victim).next;  // past the back (kNil): restart at the front
      break;
    }
  }
  Entry& entry = At(victim);
  size_bytes_ -= entry.bytes;
  stats_.bytes_evicted += entry.bytes;
  ++stats_.evictions;
  if (policy_ == CachePolicy::kLfu) {
    lfu_index_.erase({entry.freq, entry.seq, entry.key});
  }
  map_.Erase(entry.key);
  Release(victim);
}

template <typename V>
void NodeCache<V>::Erase(NodeId key) {
  const Index* slot = map_.Find(key);
  if (slot == nullptr) {
    return;
  }
  const Index i = *slot;
  Entry& entry = At(i);
  if (hand_ == i) {
    hand_ = kNil;
  }
  if (policy_ == CachePolicy::kLfu) {
    lfu_index_.erase({entry.freq, entry.seq, key});
  }
  size_bytes_ -= entry.bytes;
  map_.Erase(key);
  Release(i);
}

template <typename V>
void NodeCache<V>::Clear() {
  chunks_.clear();
  slots_ = 0;
  used_slots_ = 0;
  free_head_ = kNil;
  head_ = kNil;
  tail_ = kNil;
  map_.Clear();
  lfu_index_.clear();
  size_bytes_ = 0;
  hand_ = kNil;
}

}  // namespace grouting

#endif  // GROUTING_SRC_CACHE_CACHE_H_
