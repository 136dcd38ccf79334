#include "src/partition/partitioner.h"

#include "src/util/murmur3.h"

namespace grouting {

PartitionAssignment HashPartitioner::Partition(const Graph& g, uint32_t k) {
  GROUTING_CHECK(k > 0);
  PartitionAssignment assignment(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    assignment[u] = Place(u, k);
  }
  return assignment;
}

PartitionId HashPartitioner::Place(NodeId u, uint32_t k) const {
  GROUTING_DCHECK(k > 0);
  return Murmur3Hash64(u, hash_seed_) % k;
}

PartitionAssignment RangePartitioner::Partition(const Graph& g, uint32_t k) {
  GROUTING_CHECK(k > 0);
  const size_t n = g.num_nodes();
  PartitionAssignment assignment(n);
  // ceil-sized leading ranges so every partition is within one node of even.
  const size_t base = n / k;
  const size_t extra = n % k;
  size_t next = 0;
  for (uint32_t p = 0; p < k; ++p) {
    const size_t size = base + (p < extra ? 1 : 0);
    for (size_t i = 0; i < size; ++i) {
      assignment[next++] = p;
    }
  }
  return assignment;
}

}  // namespace grouting
