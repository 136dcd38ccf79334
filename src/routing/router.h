// The query router (paper Sections 2.3 / 3.2):
//
//   * one queue per processor connection; a query is routed on arrival by
//     the active RoutingStrategy using current queue lengths as load,
//   * dispatch is acknowledgement-driven — the engine asks for the next
//     query for processor p only when p finished its previous one,
//   * QUERY STEALING (Requirement 2): an idle processor whose queue is empty
//     takes a query from the longest queue, so no processor idles while
//     work is pending.

#ifndef GROUTING_SRC_ROUTING_ROUTER_H_
#define GROUTING_SRC_ROUTING_ROUTER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/query/query.h"
#include "src/routing/strategy.h"

namespace grouting {

struct RouterStats {
  uint64_t routed = 0;
  uint64_t dispatched = 0;
  uint64_t steals = 0;
  // Queries per processor, post-stealing (load balance diagnostics).
  std::vector<uint64_t> per_processor;
};

struct RouterConfig {
  bool enable_stealing = true;
};

class Router {
 public:
  Router(std::unique_ptr<RoutingStrategy> strategy, uint32_t num_processors,
         RouterConfig config = {});

  uint32_t num_processors() const { return num_processors_; }

  // The one routing decision both engines make: asks the strategy for a
  // processor given the per-processor `queue_lengths`, range-checks it and
  // counts the routed query. Enqueue passes this router's own queues; the
  // threaded engine passes live channel lengths under its shard mutex.
  uint32_t Route(const Query& q, std::span<const uint32_t> queue_lengths);

  // Routes the query onto a processor queue; returns the chosen processor.
  uint32_t Enqueue(const Query& q);

  // Next query for a ready processor: its own queue first, else stolen from
  // the longest queue. Records the dispatch with the strategy (EMA etc.).
  std::optional<Query> NextForProcessor(uint32_t p);

  bool HasPending() const { return pending_ > 0; }
  size_t pending() const { return pending_; }
  // View over the maintained per-processor lengths — valid until the next
  // Enqueue/NextForProcessor call, never a copy (this is on the hot path).
  std::span<const uint32_t> QueueLengths() const { return lengths_; }

  // Router sharding (src/frontend/): per-processor queue lengths reported by
  // sibling router shards at the last gossip round. Added on top of the
  // local lengths when building the strategy's load context, so a shard
  // routes against its best estimate of cluster-wide load. Empty = none.
  void SetRemoteLoad(std::span<const uint32_t> remote);

  RoutingStrategy& strategy() { return *strategy_; }
  const RoutingStrategy& strategy() const { return *strategy_; }
  const RouterStats& stats() const { return stats_; }

 private:
  std::unique_ptr<RoutingStrategy> strategy_;
  uint32_t num_processors_;
  RouterConfig config_;
  std::vector<std::deque<Query>> queues_;
  std::vector<uint32_t> lengths_;
  std::vector<uint32_t> remote_load_;    // gossip snapshot, zeros when unsharded
  std::vector<uint32_t> combined_load_;  // scratch: lengths_ + remote_load_
  bool has_remote_load_ = false;
  size_t pending_ = 0;
  RouterStats stats_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_ROUTING_ROUTER_H_
