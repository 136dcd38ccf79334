// Flat open-addressing hash table keyed by NodeId, for the per-query visited
// sets of the traversal kernels and the processor cache's key index: linear
// probing over a power-of-two slot array, Fibonacci hashing, growth (doubling)
// once half the slots are used. One contiguous allocation replaces the
// heap node per key of std::unordered_map/unordered_set.
//
// kInvalidNode marks an empty slot, so that one key is held in a side slot
// beside the array: every NodeId, kInvalidNode included, is a valid key (the
// v2 adjacency decoder admits it as an edge destination).
//
// Pointers returned by Find stay valid until the next Insert (growth
// rehashes), Erase (backward shift moves slots) or Clear.

#ifndef GROUTING_SRC_UTIL_NODE_TABLE_H_
#define GROUTING_SRC_UTIL_NODE_TABLE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace grouting {

template <typename V>
class NodeTable {
 public:
  NodeTable() { Reset(16); }

  // Inserts key -> value and returns true if `key` is absent; otherwise keeps
  // the stored value and returns false.
  bool Insert(NodeId key, V value = V{}) {
    if (key == kInvalidNode) {
      if (has_invalid_) {
        return false;
      }
      has_invalid_ = true;
      invalid_value_ = std::move(value);
      return true;
    }
    size_t i = Home(key);
    for (; slots_[i].key != kInvalidNode; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return false;
      }
    }
    if (2 * (used_ + 1) > slots_.size()) {
      Grow();
      i = Home(key);
      while (slots_[i].key != kInvalidNode) {
        i = (i + 1) & mask_;
      }
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++used_;
    return true;
  }

  // The stored value, or nullptr when `key` is absent.
  V* Find(NodeId key) {
    if (key == kInvalidNode) {
      return has_invalid_ ? &invalid_value_ : nullptr;
    }
    for (size_t i = Home(key); slots_[i].key != kInvalidNode; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return &slots_[i].value;
      }
    }
    return nullptr;
  }
  const V* Find(NodeId key) const { return const_cast<NodeTable*>(this)->Find(key); }
  bool Contains(NodeId key) const { return Find(key) != nullptr; }

  // Removes `key`; returns whether it was present. Backward-shift deletion:
  // later members of the probe run move up so no tombstones accumulate.
  bool Erase(NodeId key) {
    if (key == kInvalidNode) {
      const bool had = has_invalid_;
      has_invalid_ = false;
      invalid_value_ = V{};
      return had;
    }
    size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == kInvalidNode) {
        return false;
      }
    }
    for (size_t j = (hole + 1) & mask_; slots_[j].key != kInvalidNode; j = (j + 1) & mask_) {
      // Slot j may fill the hole iff the hole lies on its probe path, i.e.
      // its home is no closer to j than the hole is.
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --used_;
    return true;
  }

  // Empties the table, keeping its slot array.
  void Clear() {
    for (Slot& slot : slots_) {
      slot = Slot{};
    }
    used_ = 0;
    has_invalid_ = false;
    invalid_value_ = V{};
  }

  size_t size() const { return used_ + (has_invalid_ ? 1 : 0); }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    [[no_unique_address]] V value{};
  };

  size_t Home(NodeId key) const {
    return static_cast<size_t>((static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // `slots` must be a power of two.
  void Reset(size_t slots) {
    slots_.assign(slots, Slot{});
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    Reset(old.size() * 2);
    for (Slot& slot : old) {
      if (slot.key == kInvalidNode) {
        continue;
      }
      size_t i = Home(slot.key);
      while (slots_[i].key != kInvalidNode) {
        i = (i + 1) & mask_;
      }
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
  size_t used_ = 0;  // array slots holding a key
  bool has_invalid_ = false;
  V invalid_value_{};
};

// Membership-only table: a set of NodeIds at four bytes per slot.
struct NoValue {};
using NodeSet = NodeTable<NoValue>;

}  // namespace grouting

#endif  // GROUTING_SRC_UTIL_NODE_TABLE_H_
