// Load/EMA gossip between router shards (src/frontend/).
//
// Shards are shared-nothing: each routes its own arrival slice with its own
// strategy instance and only its own queues in view. Left alone their
// adaptive state drifts apart — two shards build different EMA pictures of
// the same processor caches and fight each other's placement. A gossip
// round reconciles them:
//
//   1. every shard snapshots its per-processor queue lengths and strategy
//      state (via RoutingStrategy::Clone), so the round is symmetric and
//      order-independent,
//   2. every shard receives the sum of its siblings' queue snapshots as a
//      remote-load view (Router::SetRemoteLoad),
//   3. every shard blends each sibling's state snapshot in with weight
//      kGossipMergeWeight / num_shards (RoutingStrategy::MergeRemoteState)
//      — the 1/num_shards scaling keeps the blend a contraction for any
//      merge weight in (0, 1], so divergence shrinks instead of
//      oscillating.
//
// RouterFleet::BlendStrategies runs steps 1 and 3 for both engines; the
// simulator's GossipRound adds step 2 from its own queues, while threaded
// router shards read live channel lengths instead. The engines drive the
// period: the simulated engine schedules gossip as discrete events in
// virtual time, the threaded runtime runs a wall-clock tick that holds every
// shard mutex for the blend.

#ifndef GROUTING_SRC_FRONTEND_GOSSIP_H_
#define GROUTING_SRC_FRONTEND_GOSSIP_H_

#include <cstdint>
#include <span>

#include "src/routing/strategy.h"

namespace grouting {

// Blend weight for sibling state at a gossip round, in (0, 1].
inline constexpr double kGossipMergeWeight = 0.5;

struct GossipStats {
  uint64_t rounds = 0;
  // Cross-shard state divergence around the most recent round.
  double last_divergence_before = 0.0;
  double last_divergence_after = 0.0;
};

// Mean pairwise L2 distance between the shards' GossipState vectors.
// 0.0 for stateless strategies or fewer than two shards.
double CrossShardStateDivergence(std::span<const RoutingStrategy* const> shards);

// One state-blend round over the shard strategies: snapshot all shards via
// Clone(), then merge every sibling snapshot into every shard with an
// effective uniform weight of kGossipMergeWeight / shards.size() each. No-op
// when every shard's GossipState is empty (stateless strategies).
void GossipBlendStrategies(std::span<RoutingStrategy* const> shards);

}  // namespace grouting

#endif  // GROUTING_SRC_FRONTEND_GOSSIP_H_
