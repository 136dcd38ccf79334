// Online h-hop traversal queries (paper Section 2.2):
//
//   1. h-hop Neighbour Aggregation — count the h-hop neighbours of a query
//      node (optionally only those with a given label).
//   2. h-step Random Walk with Restart — h steps, each jumping to a uniform
//      neighbour or back to the origin with restart probability.
//   3. h-hop Reachability — is `target` within h hops of `node`? Executed as
//      a bidirectional BFS (we store both edge directions), optionally
//      label-constrained on intermediate nodes.
//
// Queries execute against a NodeDataSource — the processor-side seam that
// hides "cache over partitioned storage". Executors are deterministic given
// Query::seed.

#ifndef GROUTING_SRC_QUERY_QUERY_H_
#define GROUTING_SRC_QUERY_QUERY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/storage/adjacency.h"

namespace grouting {

enum class QueryType : uint8_t {
  kNeighborAggregation,
  kRandomWalk,
  kReachability,
};

std::string QueryTypeName(QueryType type);

struct Query {
  QueryType type = QueryType::kNeighborAggregation;
  NodeId node = 0;                 // query node (source)
  NodeId target = kInvalidNode;    // reachability target
  int32_t hops = 2;                // h
  Label label_filter = kNoLabel;   // aggregation: count only this label;
                                   // reachability: constrain intermediate nodes
  double restart_prob = 0.15;      // random walk restart probability
  uint64_t seed = 0;               // per-query determinism (random walk)
  uint64_t id = 0;                 // workload-assigned id (for tracing)
  uint32_t tenant = 0;             // tenant keyspace (multi-tenant federation)
  double arrive_us = -1.0;         // open-loop arrival timestamp (µs); < 0 =
                                   // closed-loop pacing via arrival_gap_us
};

struct QueryResult {
  QueryType type = QueryType::kNeighborAggregation;
  // Aggregation: number of h-hop neighbours (or label matches).
  uint64_t aggregate = 0;
  // Random walk: node where the walk ended and number of distinct visits.
  NodeId walk_end = kInvalidNode;
  uint64_t walk_distinct_nodes = 0;
  // Reachability.
  bool reachable = false;
  int32_t distance = -1;  // hop distance if reachable (-1 otherwise)
};

// Everything the execution engines need to account for one query's work:
// cache interaction counts (the paper's Eq. 8/9 hit/miss metric), visited
// node count (compute cost), and the per-server miss batches (storage and
// network cost). Batches are recorded in traversal-level order.
struct FetchTrace {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_lookups = 0;  // hits + misses when cache enabled, else 0
  uint64_t visited = 0;        // adjacency entries consumed
  uint64_t bytes_fetched = 0;  // shipped from the storage tier (wire bytes)
  // Wall time spent decoding compressed blobs on cache hits (threaded
  // runtime, cache_compressed mode). The simulator charges its virtual
  // equivalent from CostModel::decompress_* during replay instead.
  double decompress_us = 0.0;

  struct Batch {
    uint32_t server = 0;
    uint32_t values = 0;
    uint64_t bytes = 0;
    uint64_t edges = 0;  // total edges across the batch's values
    uint32_t level = 0;  // traversal round the batch belongs to
  };
  std::vector<Batch> batches;
  uint32_t levels = 0;  // number of synchronous fetch rounds

  // Per traversal round: cache interaction and fetch counts. The simulator
  // replays these to charge compute/cache/storage time level by level.
  struct Level {
    uint32_t lookups = 0;
    uint32_t hits = 0;
    uint32_t misses = 0;
    uint32_t fetched = 0;        // values actually returned by storage
    uint64_t hit_edges = 0;      // edges across cache-hit entries
    uint64_t fetched_edges = 0;  // edges across storage-fetched entries
  };
  std::vector<Level> level_stats;

  // Async fetch pipeline (max_inflight_batches > 1, threaded runtime): peak
  // number of concurrently outstanding multiget batches, and wall time the
  // processor spent doing useful work (probes, merges, cache inserts) while
  // at least one batch was in flight. Zero on the inline/synchronous path;
  // the simulator computes its virtual-time equivalents during replay.
  uint32_t max_batches_inflight = 0;
  double async_overlap_us = 0.0;

  void Clear() { *this = FetchTrace{}; }
};

// The processor-side data access seam. FetchBatch must return entries
// positionally matching `nodes` (nullptr where the node does not exist).
// Lifetime contract:
//   * a returned entry stays valid and unchanged for as long as the caller
//     holds its AdjacencyPtr — later calls never write into it;
//   * returned entries are never handed to another thread, so a source
//     may recycle an entry once its own reference is the only one left
//     (use_count() == 1 is then exact, not a racy hint).
class NodeDataSource {
 public:
  virtual ~NodeDataSource() = default;

  virtual std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) = 0;

  // For callers that read only each node's label: the last level of an
  // aggregation, which is fetched but never expanded, and reachability's
  // label filter. Positionally matches `nodes`; std::nullopt where the node
  // does not exist (kNoLabel is a real label). It must leave the same
  // trace, cache state and storage traffic as FetchBatch(nodes) — the
  // default is exactly that call, so decorators that forward only
  // FetchBatch see an unchanged call sequence — and an override may skip
  // only work whose result the caller never reads, such as decoding edge
  // lists.
  virtual std::vector<std::optional<Label>> FetchLabels(std::span<const NodeId> nodes);

  AdjacencyPtr FetchOne(NodeId node) {
    const NodeId ids[1] = {node};
    auto fetched = FetchBatch(ids);
    return fetched.empty() ? nullptr : fetched[0];
  }

  virtual const FetchTrace& trace() const = 0;
  virtual void ResetTrace() = 0;
};

// Executes any query type. All traversal is over the bi-directed view
// (out + in edges), matching the paper's storage and routing model.
QueryResult ExecuteQuery(const Query& q, NodeDataSource& source);

QueryResult ExecuteNeighborAggregation(const Query& q, NodeDataSource& source);
QueryResult ExecuteRandomWalk(const Query& q, NodeDataSource& source);
QueryResult ExecuteReachability(const Query& q, NodeDataSource& source);

// Test/reference data source reading the graph directly (no cache, no
// storage); traces count every fetch as a miss from server 0.
class DirectGraphSource : public NodeDataSource {
 public:
  explicit DirectGraphSource(const Graph& g) : graph_(g) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override;
  const FetchTrace& trace() const override { return trace_; }
  void ResetTrace() override { trace_.Clear(); }

 private:
  const Graph& graph_;
  FetchTrace trace_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_QUERY_QUERY_H_
