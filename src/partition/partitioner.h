// Node partitioners: map every node to one of k partitions.
//
// gRouting itself only needs the inexpensive hash partitioner (that is the
// paper's headline: smart routing makes storage partitioning unimportant).
// The sophisticated partitioners here exist to (a) drive the SEDGE-like
// coupled baseline the paper compares against, and (b) support the ablation
// benches that show partition quality matters far less under smart routing.

#ifndef GROUTING_SRC_PARTITION_PARTITIONER_H_
#define GROUTING_SRC_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace grouting {

using PartitionId = uint32_t;
using PartitionAssignment = std::vector<PartitionId>;  // node -> partition

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual std::string name() const = 0;
  // Returns a size-n assignment with values in [0, k).
  virtual PartitionAssignment Partition(const Graph& g, uint32_t k) = 0;
};

// MurmurHash3(node id) mod k — RAMCloud-style placement, O(1) per node,
// oblivious to topology. This is what the decoupled storage tier uses.
class HashPartitioner : public Partitioner {
 public:
  explicit HashPartitioner(uint32_t hash_seed = 0x9747b28cu) : hash_seed_(hash_seed) {}
  std::string name() const override { return "hash"; }
  PartitionAssignment Partition(const Graph& g, uint32_t k) override;

  // The same function applied to a single node, usable without a Graph.
  PartitionId Place(NodeId u, uint32_t k) const;

  uint32_t seed() const { return hash_seed_; }

 private:
  uint32_t hash_seed_;
};

// Contiguous id ranges of (near-)equal size. Captures locality only when node
// ids happen to correlate with topology.
class RangePartitioner : public Partitioner {
 public:
  std::string name() const override { return "range"; }
  PartitionAssignment Partition(const Graph& g, uint32_t k) override;
};

}  // namespace grouting

#endif  // GROUTING_SRC_PARTITION_PARTITIONER_H_
