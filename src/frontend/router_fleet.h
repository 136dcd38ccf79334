// RouterFleet: the sharded router frontend.
//
//   arrivals -> ArrivalSplitter -> N shared-nothing RouterShards -> P procs
//                                   each: own Router (queues) + own
//                                   RoutingStrategy clone (own EMA view)
//                                        ^
//                                        | periodic LoadGossip (queue
//                                        v  snapshots + EMA blend)
//
// The paper's smart router sees every arrival; a fleet splits the stream so
// no single router bounds ingest throughput. Each shard routes its slice
// against its own queues plus the remote-load view from the last gossip
// round, and dispatch stays acknowledgement-driven: a ready processor
// drains the shard holding its longest queue first, falling back to the
// shards' own steal logic.
//
// With num_shards == 1 the fleet IS the classic single router — same
// strategy instance, same call sequence — which tests/frontend_test.cc
// pins down as answer-identical for every scheme.
//
// The fleet is engine-agnostic like Router: the simulated engine drives
// GossipRound() from virtual-time events, the threaded runtime from a
// wall-clock tick (see src/sim/ and src/runtime/).

#ifndef GROUTING_SRC_FRONTEND_ROUTER_FLEET_H_
#define GROUTING_SRC_FRONTEND_ROUTER_FLEET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/frontend/gossip.h"
#include "src/frontend/splitter.h"
#include "src/routing/router.h"

namespace grouting {

struct FleetConfig {
  // Shared-nothing router shards the arrival stream is split across.
  uint32_t num_shards = 1;
  // How arrivals are split across shards (sessions are bounded at
  // ArrivalSplitter::kDefaultSessionCapacity).
  SplitterKind splitter = SplitterKind::kRoundRobin;
  RouterConfig router;  // per-shard router config (stealing)
  // Time between load/EMA gossip rounds (virtual µs on the simulated
  // engine, which drives GossipRound). 0 disables gossip.
  double gossip_period_us = 200.0;
  // Adaptive re-splitting of the arrival stream (splitter == kAdaptive):
  // each gossip round may migrate hot sessions off the most-loaded shard.
  RebalanceConfig rebalance;
};


class RouterFleet {
 public:
  // Shard 0 keeps `strategy`; shards 1..N-1 get strategy->Clone() (checked:
  // sharding a non-cloneable strategy is a config error).
  RouterFleet(std::unique_ptr<RoutingStrategy> strategy, uint32_t num_processors,
              FleetConfig config);

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t num_processors() const { return num_processors_; }
  bool gossip_enabled() const {
    return num_shards() > 1 && config_.gossip_period_us > 0.0;
  }
  const FleetConfig& config() const { return config_; }

  struct RoutedArrival {
    uint32_t shard = 0;
    uint32_t processor = 0;
  };

  // Splits the arrival onto its shard and routes it there.
  RoutedArrival Enqueue(const Query& q);

  // Next query for a ready processor. Shards are tried hottest-first (the
  // longest local queue for p); a shard with pending work elsewhere serves
  // via its own steal path, so no processor idles while any shard has work.
  std::optional<Query> NextForProcessor(uint32_t p);

  bool HasPending() const;
  size_t pending() const;

  // One load/EMA gossip round (see src/frontend/gossip.h): refreshes every
  // shard's remote-load view, blends the strategies' adaptive state, and —
  // with the adaptive splitter — runs a RebalanceRound() off the same load
  // snapshot.
  void GossipRound();

  // Adaptive arrival re-splitting: feeds the shards' routed counts to the
  // splitter and migrates hot sessions per FleetConfig::rebalance. A moved
  // session carries strategy state: the destination shard merges the source
  // shard's gossip state (MergeRemoteState) so EmbedStrategy's EMA does not
  // restart cold. Returns the number of sessions migrated this round.
  size_t RebalanceRound();

  // Mean pairwise L2 distance between shard strategies' gossip state, right
  // now (0 for stateless strategies or a single shard).
  double CurrentEmaDivergence() const;

  Router& shard(uint32_t s) { return *shards_[s]; }
  const Router& shard(uint32_t s) const { return *shards_[s]; }
  const GossipStats& gossip_stats() const { return gossip_stats_; }
  const ArrivalSplitter& splitter() const { return splitter_; }

  // Arrival split across shards, derived from the shard routers' own
  // counters (single source of truth).
  std::vector<uint64_t> RoutedPerShard() const;

  // Fleet-wide router stats: summed routed/dispatched/steals and the
  // per-processor dispatch split across all shards.
  RouterStats AggregateRouterStats() const;

 private:
  std::vector<const RoutingStrategy*> StrategyViews() const;

  FleetConfig config_;
  uint32_t num_processors_;
  ArrivalSplitter splitter_;
  std::vector<std::unique_ptr<Router>> shards_;
  GossipStats gossip_stats_;
  std::vector<uint32_t> remote_scratch_;
  std::vector<uint32_t> order_scratch_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_FRONTEND_ROUTER_FLEET_H_
