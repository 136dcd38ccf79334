// RouterFleet: the sharded router frontend, built once per cluster by
// ClusterEngine and driven by both engines.
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
// with its own strategy clone (Router::Route), the fleet blends the clones'
// adaptive state at each gossip round, and the adaptive splitter re-splits
// hot sessions off the same round. The fleet owns the splitter, the shard
// strategies, the gossip and rebalance rounds and the routed counters; the
// engines own only how queries wait and move:
//
//   * the simulator queues each shard's arrivals in its Router
//     (Enqueue / NextForProcessor: a ready processor drains the shard holding
//     its longest queue first, falling back to the shards' own steal logic),
//     exchanges remote load at each GossipRound from virtual-time events,
//     and stops gossiping once the answers drain;
//   * the threaded runtime calls ShardFor from its feeder, Router::Route from
//     its router-shard threads with live channel lengths, and the gossip
//     round's steps (BlendStrategies, RoutedPerShard, ResplitSessions,
//     CarrySessionState) from a wall-clock tick, each under the mutex that
//     guards what it touches.
//
// With num_shards == 1 the fleet IS the classic single router — same
// strategy instance, same call sequence — which tests/frontend_test.cc
// pins down as answer-identical for every scheme.

#ifndef GROUTING_SRC_FRONTEND_ROUTER_FLEET_H_
#define GROUTING_SRC_FRONTEND_ROUTER_FLEET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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
  // engine, wall-clock µs on the threaded one). 0 disables gossip.
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

  // Assigns the arrival to its shard (ArrivalSplitter::ShardFor): once per
  // arrival, in arrival order.
  uint32_t ShardFor(const Query& q) { return splitter_.ShardFor(q); }

  // Splits the arrival onto its shard and enqueues it there.
  RoutedArrival Enqueue(const Query& q);

  // Next query for a ready processor. Shards are tried hottest-first (the
  // longest local queue for p); a shard with pending work elsewhere serves
  // via its own steal path, so no processor idles while any shard has work.
  std::optional<Query> NextForProcessor(uint32_t p);

  bool HasPending() const;
  size_t pending() const;

  // One load/EMA gossip round, as the simulator runs it: every shard learns
  // the sum of its siblings' per-processor queue lengths (the remote-load
  // view, Router::SetRemoteLoad), then BlendStrategies(), then — with the
  // adaptive splitter — a RebalanceRound() off the same round.
  void GossipRound();

  // The state half of a gossip round (see src/frontend/gossip.h): blends the
  // shard strategies' adaptive state, records the divergence around the
  // blend and counts the round.
  void BlendStrategies();

  // Whether RebalanceRound can migrate sessions: sharded, adaptive splitter,
  // and an enabled FleetConfig::rebalance policy.
  bool rebalance_enabled() const;

  // Adaptive arrival re-splitting, in three steps an engine may run under
  // different locks: RoutedPerShard() reads the shards' counters,
  // ResplitSessions() runs the splitter's O(sessions) round over them, and
  // CarrySessionState() merges strategy state along the moves. Returns the
  // number of sessions migrated this round.
  size_t RebalanceRound();

  // The splitter's round (FleetConfig::rebalance) over a routed-count
  // snapshot; returns the sessions it migrated (empty unless
  // rebalance_enabled()).
  std::vector<SessionMigration> ResplitSessions(std::span<const uint64_t> routed);

  // Strategy-state carry for migrated sessions: the destination shard merges
  // the source shard's gossip state (MergeRemoteState) ONCE per unique
  // (from, to) pair, with weight RebalanceConfig::kStateCarryWeight, so
  // EmbedStrategy's EMA does not restart cold. Merging per session would
  // compound the blend, and a storm of same-pair migrations would wipe the
  // destination's own adaptive state.
  void CarrySessionState(std::span<const SessionMigration> migrations);

  // Mean pairwise L2 distance between shard strategies' gossip state, right
  // now (0 for stateless strategies or a single shard).
  double CurrentEmaDivergence() const;

  Router& shard(uint32_t s) { return *shards_[s]; }
  const Router& shard(uint32_t s) const { return *shards_[s]; }
  const GossipStats& gossip_stats() const { return gossip_stats_; }
  const ArrivalSplitter& splitter() const { return splitter_; }

  // Arrival split across shards: the shard routers' routed counters.
  std::vector<uint64_t> RoutedPerShard() const;

  // Fleet-wide router stats: summed routed/dispatched/steals and the
  // per-processor dispatch split across all shards.
  RouterStats AggregateRouterStats() const;

 private:
  std::vector<RoutingStrategy*> Strategies();
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
