// Arrival splitter for the sharded router frontend (src/frontend/): decides
// which RouterShard owns each query of the arrival stream.
//
//   * round-robin — perfectly even slices, no affinity,
//   * hash        — MurmurHash3(query node) mod N: repeats of a node always
//                   hit the same shard, so that shard's EMA sees them all,
//   * sticky      — session affinity: the first query for a node picks the
//                   least-assigned shard and later queries for that node
//                   stick to it (hotspot runs stay on one shard while the
//                   assignment stays balanced across hotspots),
//   * adaptive    — sticky assignment plus feedback: Rebalance() consumes
//                   the gossip round's per-shard routed-load snapshot and
//                   migrates the hottest sessions from the most- to the
//                   least-loaded shard once the max/min load ratio exceeds
//                   RebalanceConfig::threshold (PHD-Store-style dynamic
//                   repartitioning, applied to the arrival stream). The
//                   greedy round itself is PlanRebalance (src/util/stats.h),
//                   shared with the storage tier's PlanRepartition.
//
// Sessions (sticky/adaptive) are keyed by query node and bounded: at
// session_capacity the oldest session is evicted FIFO (cheap, O(1)), so a
// long-lived frontend cannot grow the table without bound. An evicted node
// that reappears simply starts a fresh session.
//
// The splitter is deliberately deterministic given the arrival order and
// the Rebalance() call points, so the simulated and threaded engines slice
// one workload identically when driven identically.

#ifndef GROUTING_SRC_FRONTEND_SPLITTER_H_
#define GROUTING_SRC_FRONTEND_SPLITTER_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/query/query.h"
#include "src/util/murmur3.h"

namespace grouting {

enum class SplitterKind {
  kRoundRobin,
  kHash,
  kSticky,
  kAdaptive,
};

std::string SplitterKindName(SplitterKind kind);

// Adaptive re-splitting policy (kAdaptive only; ignored otherwise), held by
// ClusterConfig::router_rebalance.
struct RebalanceConfig {
  // Trigger: migrate when (max+1)/(min+1) over the shards' effective routed
  // loads exceeds this ratio. <= 1 (or infinity) disables migration, which
  // makes kAdaptive decision-identical to kSticky. Rebalance rides the
  // gossip round, so it also needs a gossip period > 0.
  double threshold = 0.0;
  // At most this many sessions move per Rebalance() round (anti-thrash cap).
  uint32_t migration_cap = 8;
  // Per-round decay of the load signal, in [0, 1). Each Rebalance() rolls
  // the snapshot's per-shard delta into an EWMA — the controller reacts to
  // recent ARRIVAL RATE, not to the whole run's cumulative counts (which
  // would make it ever less sensitive as the run grows).
  double load_decay = 0.8;
  // Noise floor: migrate only while the hot-cold gap exceeds this many
  // Poisson sigmas (sqrt of the hottest shard's recent load). Short gossip
  // windows carry mostly sampling noise; without the floor the controller
  // thrashes sessions chasing it.
  double noise_sigmas = 3.0;
  // Strategy-state carry on migration: the destination shard merges the
  // source shard's gossip state with this weight (MergeRemoteState), so an
  // EmbedStrategy receiving a migrated session does not restart cold.
  static constexpr double kStateCarryWeight = 0.5;

  bool enabled() const {
    return threshold > 1.0 && threshold < 1e30 && migration_cap > 0;
  }
};

struct SplitterStats {
  uint64_t evictions = 0;         // sessions dropped at the capacity bound
  uint64_t migrations = 0;        // sessions moved by Rebalance()
  uint64_t rebalance_rounds = 0;  // Rebalance() calls that evaluated loads
};

// One session moved by a Rebalance() round.
struct SessionMigration {
  NodeId session = kInvalidNode;
  uint32_t from = 0;
  uint32_t to = 0;
};

class ArrivalSplitter {
 public:
  static constexpr uint32_t kDefaultSessionCapacity = 1u << 16;

  ArrivalSplitter(SplitterKind kind, uint32_t num_shards,
                  uint32_t session_capacity = kDefaultSessionCapacity,
                  uint32_t hash_seed = 0x7f4a7c15u);

  SplitterKind kind() const { return kind_; }
  uint32_t num_shards() const { return num_shards_; }

  // Assigns the arrival to a shard in [0, num_shards). Mutates splitter
  // state (rotor / session table), so call it once per arrival, in order.
  uint32_t ShardFor(const Query& q);

  // Adaptive re-splitting round: given the cumulative per-shard routed-load
  // snapshot from the gossip channel, rolls the delta since the previous
  // round into a decayed per-shard rate estimate, then runs PlanRebalance
  // over the shards with every session as an item and applies the moves it
  // returns. A migrating session carries its own decayed rate from source
  // to destination accumulator, so already-corrected skew does not
  // re-trigger. Returns the migrations applied (empty unless kind ==
  // kAdaptive and config.enabled()).
  std::vector<SessionMigration> Rebalance(std::span<const uint64_t> shard_loads,
                                          const RebalanceConfig& config);

  // Current shard of a live session, or num_shards() if unknown/evicted.
  uint32_t SessionShard(NodeId session) const;

  size_t session_count() const { return sessions_.size(); }
  uint32_t session_capacity() const { return session_capacity_; }
  const SplitterStats& stats() const { return stats_; }

 private:
  struct Session {
    uint32_t shard = 0;
    // Arrivals since the last Rebalance() round, and the decayed per-round
    // rate estimate they roll into (the session's migration "mass").
    uint64_t window = 0;
    double rate = 0.0;
  };

  uint32_t AssignNewSession(NodeId node);

  SplitterKind kind_;
  uint32_t num_shards_;
  uint32_t session_capacity_;
  uint32_t hash_seed_;
  uint64_t rotor_ = 0;
  std::unordered_map<NodeId, Session> sessions_;
  std::vector<uint64_t> sessions_per_shard_;
  // FIFO eviction ring over live sessions, oldest at ring_[ring_next_].
  std::vector<NodeId> ring_;
  size_t ring_next_ = 0;
  // Rate estimation across Rebalance() rounds: the cumulative snapshot seen
  // last round, and the decayed per-shard rate the deltas roll into.
  std::vector<uint64_t> last_loads_;
  std::vector<double> recent_load_;
  SplitterStats stats_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_FRONTEND_SPLITTER_H_
