// Adaptive repartitioning of the storage tier under skew (PHD-Store-style
// dynamic repartitioning, Al-Harbi et al., applied to the decoupled tier).
//
// The paper keeps the storage tier's partitioning static — MurmurHash3 over
// node ids — and pushes all adaptivity into the routers. That works until a
// Zipf-skewed workload concentrates traversal traffic on keys that happen
// to live on one storage server: router-side re-splitting (src/frontend/)
// cannot help, because the hot vertices physically live there. This module
// closes that gap with three pieces:
//
//   * PartitionMap     — the key space is cut into P = partitions_per_server
//                        x num_servers virtual partitions by the SAME
//                        MurmurHash3 the tier places keys with; each
//                        partition has a current owner server. The initial
//                        owner of partition q is q % num_servers, which makes
//                        the map's placement BYTE-IDENTICAL to the tier's
//                        classic hash placement ((h % cM) % M == h % M) —
//                        enabling repartitioning changes nothing until the
//                        first migration actually fires.
//   * PartitionMonitor — per-partition decayed access-rate estimates, fed
//                        with one Record() per key from the StorageTier
//                        multiget path (into the reading processor's own
//                        shard) and rolled into rates at planner rounds.
//   * PlanRepartition  — the controller: at gossip-aligned rounds, propose
//                        hot-partition migrations from the most- to the
//                        least-loaded storage server once the max/min load
//                        ratio exceeds a threshold. The greedy round is
//                        PlanRebalance (src/util/stats.h), the same one the
//                        arrival splitter runs over router shards: hysteresis,
//                        a per-round migration cap, a Poisson noise floor and
//                        a strict-improvement victim rule.
//
// The physical move (copy keys -> flip owner -> drain in-flight multigets
// against the old owner -> delete) is the storage tier's job:
// StorageTier::MigratePartition.
//
// Hot-partition REPLICATION rides the same skeleton: when a single scorching
// partition saturates its owner even after migration (migration can only
// relocate the hotspot, never split it), PlanReplication promotes the top-k
// hottest partitions to an extra replica on the least-loaded server. Readers
// then fan across {owner + replicas} with power-of-two-choices on their own
// per-server read loads (StorageTier::ReadServerOf): each processor balances
// its own reads on the threaded engine, and all processors together, as one
// shared reader, in the simulator. A demotion rule on the same decayed rates
// reclaims replicas once a partition cools. Replica sets live in the
// map as packed versioned stamps next to the owner stamps; creation and
// teardown reuse the copy -> flip -> drain -> delete epoch machinery.

#ifndef GROUTING_SRC_PARTITION_REPARTITION_H_
#define GROUTING_SRC_PARTITION_REPARTITION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/cache_line.h"
#include "src/util/murmur3.h"

namespace grouting {

// Controller policy for the storage-tier rebalancer, held by
// ClusterConfig::repartition. The settable fields are the ones benches and
// tests sweep; the k-constants are tuned values.
struct RepartitionConfig {
  // Trigger: migrate when (max+1)/(min+1) over the servers' decayed access
  // rates exceeds this ratio. <= 1 (or infinity) disables repartitioning
  // entirely — the tier then keeps the paper's static hash placement,
  // byte-identical to the design without this subsystem.
  double threshold = 0.0;
  // At most this many partitions move per repartition round.
  uint32_t migration_cap = 4;
  // Virtual partitions per storage server (P = this x num_servers): the
  // migration granularity. More partitions = finer-grained moves at a
  // larger map. The initial partition->server layout reproduces hash
  // placement exactly.
  uint32_t partitions_per_server = 8;
  // Per-round decay of the monitor's rate estimates, in [0, 1): the
  // controller reacts to the RECENT access rate, not cumulative counts.
  static constexpr double kLoadDecay = 0.8;
  // Noise floor: migrate only while the hot-cold server gap exceeds this
  // many Poisson sigmas (sqrt of the hottest server's recent load), so
  // short windows of sampling jitter never thrash partitions.
  static constexpr double kNoiseSigmas = 3.0;

  // --- Hot-partition replication (PlanReplication) ----------------------
  // Promote up to this many of the hottest partitions to one extra replica
  // per round; reads then fan across {primary + replicas} via
  // power-of-two-choices on server load. 0 disables replication entirely —
  // the read path then reduces to plain owner routing, bit-identical to
  // the migration-only tier.
  uint32_t replication_top_k = 0;
  // Demote one replica per round from any replicated partition whose
  // decayed rate has fallen to or below this fraction of the average
  // per-server load (cold replicas are reclaimed, not kept forever).
  double replica_demote_threshold = 0.1;
  // Extra copies beyond the primary a partition may hold, capped at
  // PartitionMap::kMaxReplicas.
  uint32_t max_replicas_per_partition = 2;
  // Promotion floor: only partitions whose rate is at least this multiple
  // of the average per-PARTITION rate qualify as "hot". Partition-relative
  // (not server-relative) so the floor separates skew from uniform traffic
  // at any partitions_per_server: a uniform workload sits at 1.0x by
  // construction. The gap between this and replica_demote_threshold is the
  // promotion/demotion hysteresis band.
  static constexpr double kReplicaHotFraction = 2.0;

  bool enabled() const {
    return threshold > 1.0 && threshold < 1e30 && migration_cap > 0 &&
           partitions_per_server > 0;
  }
  bool replication_enabled() const {
    return replication_top_k > 0 && max_replicas_per_partition > 0 &&
           partitions_per_server > 0;
  }
  // Whether the engine needs the partition map / monitor / gossip rounds at
  // all: migration, replication, or both.
  bool active() const { return enabled() || replication_enabled(); }
};

// One planned partition move.
struct PartitionMigration {
  uint32_t partition = 0;
  uint32_t from = 0;
  uint32_t to = 0;
};

// One planned replica creation (promote) or teardown (demote).
struct ReplicaChange {
  uint32_t partition = 0;
  uint32_t server = 0;  // where the replica is created / destroyed
};

// One round's replication decisions. Demotions are executed before
// promotions so a round never holds more replicas than the cap in flight.
struct ReplicationPlan {
  std::vector<ReplicaChange> promote;
  std::vector<ReplicaChange> demote;
};

// partition -> owning storage server, consulted by StorageTier::ServerOf on
// every key lookup (and therefore by CachedStorageSource when it groups
// misses into per-server batches). Owners are atomics: the threaded
// engine's gossip tick flips them while processor threads read.
// Each entry packs (version << 32 | server); the version increments on
// every flip, so a reader can detect that a partition moved — even away
// and back (ABA) — across one of its reads.
class PartitionMap {
 public:
  PartitionMap(uint32_t num_partitions, uint32_t num_servers, uint32_t hash_seed);

  uint32_t num_partitions() const { return num_partitions_; }
  uint32_t num_servers() const { return num_servers_; }

  // Which partition a key falls in — the tier's placement hash mod P, so
  // the initial owner layout reproduces classic hash placement exactly.
  uint32_t PartitionOf(NodeId node) const {
    return Murmur3Hash64(node, hash_seed_) % num_partitions_;
  }

  // The server half of a packed owner stamp.
  static uint32_t StampOwner(uint64_t stamp) {
    return static_cast<uint32_t>(stamp & 0xffffffffu);
  }

  // Versioned owner stamp: compares equal across two reads iff no flip of
  // the partition happened in between.
  uint64_t OwnerStamp(uint32_t partition) const {
    return owners_[partition].load(std::memory_order_acquire);
  }
  uint64_t OwnerStampOf(NodeId node) const { return OwnerStamp(PartitionOf(node)); }

  uint32_t owner(uint32_t partition) const { return StampOwner(OwnerStamp(partition)); }
  uint32_t OwnerOf(NodeId node) const { return owner(PartitionOf(node)); }

  // Rebinds a partition to a new owner (the flip step of a migration),
  // bumping the stamp version. Written only by the engine's repartition
  // round; readers see either the old or the new stamp, never a torn value.
  void SetOwner(uint32_t partition, uint32_t server) {
    const uint64_t version = (owners_[partition].load(std::memory_order_relaxed) >> 32) + 1;
    owners_[partition].store((version << 32) | server, std::memory_order_release);
  }

  // Plain snapshot of all owners (planner working copy).
  std::vector<uint32_t> OwnerSnapshot() const;

  // --- Replica sets (hot-partition replication) -------------------------
  //
  // Each partition carries a second packed atomic stamp describing its
  // replica set: bits 0-23 hold up to kMaxReplicas 8-bit replica server
  // ids, bits 24-25 the replica count, bits 32-63 a version that bumps on
  // every add/remove. One acquire load hands a reader the WHOLE replica
  // set consistently — no torn half-updated sets, and stamp comparison
  // detects churn (even away-and-back) across two reads, exactly like the
  // owner stamps.

  // Most replicas a partition can hold beyond its primary (packing limit).
  static constexpr uint32_t kMaxReplicas = 3;

  static uint32_t StampReplicaCount(uint64_t stamp) {
    return static_cast<uint32_t>((stamp >> 24) & 0x3u);
  }
  static uint32_t StampReplica(uint64_t stamp, uint32_t i) {
    return static_cast<uint32_t>((stamp >> (8 * i)) & 0xffu);
  }

  uint64_t ReplicaStamp(uint32_t partition) const {
    return replicas_[partition].load(std::memory_order_acquire);
  }
  uint32_t replica_count(uint32_t partition) const {
    return StampReplicaCount(ReplicaStamp(partition));
  }

  // Adds / removes one replica server, bumping the stamp version. Written
  // only by the engine's repartition round (single planner thread);
  // concurrent readers see the old or the new set, never a torn one.
  void AddReplica(uint32_t partition, uint32_t server);
  void RemoveReplica(uint32_t partition, uint32_t server);

  // Partitions currently holding at least one replica.
  uint32_t ReplicatedPartitionCount() const;

  // Plain snapshot of every partition's replica list (planner working copy).
  std::vector<std::vector<uint32_t>> ReplicaSnapshot() const;

 private:
  uint32_t num_partitions_;
  uint32_t num_servers_;
  uint32_t hash_seed_;
  std::unique_ptr<std::atomic<uint64_t>[]> owners_;
  std::unique_ptr<std::atomic<uint64_t>[]> replicas_;
};

// Per-partition access-rate monitor. Record() is called from the tier's
// multiget path (any thread, relaxed atomics); RollWindow() is called by the
// single planner thread at repartition rounds and folds the window counts
// into decayed rate estimates, exactly like the arrival splitter's
// per-session rate estimator. The windows are sharded per reader (see
// StorageTier::set_num_readers): a reader counts into its own shard, which
// sits on cache lines of its own, so processor threads that read the tier
// never write the same line; RollWindow sums the shards.
class PartitionMonitor {
 public:
  explicit PartitionMonitor(uint32_t num_partitions, uint32_t num_readers = 1);

  uint32_t num_partitions() const { return num_partitions_; }

  // Counts one access to `partition` in `reader`'s window shard.
  void Record(uint32_t partition, uint32_t reader = 0) {
    windows_.at(reader, partition).fetch_add(1, std::memory_order_relaxed);
  }

  // Rolls the current windows, summed over the reader shards, into the
  // decayed rates and zeroes them. Planner-thread only.
  void RollWindow(double decay);

  // Decayed per-partition access rates, valid between RollWindow() calls.
  std::span<const double> rates() const { return rates_; }

  uint64_t total_recorded() const {
    return total_recorded_.load(std::memory_order_relaxed);
  }

 private:
  uint32_t num_partitions_;
  ShardedCounters windows_;  // reader x partition
  std::vector<double> rates_;
  std::atomic<uint64_t> total_recorded_{0};
};

// The repartition controller: given the current map and the monitor's
// decayed per-partition rates, run PlanRebalance over the servers to plan
// up to migration_cap hot-partition moves from the most- to the
// least-loaded server. Replicated partitions are not movable. Pure — the
// map is NOT mutated (the executor flips owners as each physical move
// lands); planned moves are reflected in a local working copy so one round
// stays consistent.
std::vector<PartitionMigration> PlanRepartition(const PartitionMap& map,
                                                std::span<const double> rates,
                                                const RepartitionConfig& config);

// The replication controller: demote one replica from every replicated
// partition that has gone cold (rate <= replica_demote_threshold x average
// per-server load), then promote the top replication_top_k hottest
// partitions (rate >= kReplicaHotFraction x the average per-partition
// rate, above the noise floor) to one extra replica each on the
// least-loaded server not already
// holding them. Pure, like PlanRepartition: the map is not mutated; server
// loads account replicated partitions as their rate split evenly across
// all holders (power-of-two-choices spreads reads near-evenly).
ReplicationPlan PlanReplication(const PartitionMap& map,
                                std::span<const double> rates,
                                const RepartitionConfig& config);

}  // namespace grouting

#endif  // GROUTING_SRC_PARTITION_REPARTITION_H_
