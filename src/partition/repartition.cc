#include "src/partition/repartition.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace grouting {

static_assert(RepartitionConfig::kLoadDecay >= 0.0 && RepartitionConfig::kLoadDecay < 1.0,
              "the rate decay must lie in [0, 1)");

PartitionMap::PartitionMap(uint32_t num_partitions, uint32_t num_servers,
                           uint32_t hash_seed)
    : num_partitions_(num_partitions), num_servers_(num_servers), hash_seed_(hash_seed) {
  GROUTING_CHECK(num_partitions_ > 0 && num_servers_ > 0);
  GROUTING_CHECK_MSG(num_partitions_ % num_servers_ == 0,
                     "num_partitions must be a multiple of num_servers so the "
                     "initial map reproduces hash placement exactly");
  owners_ = std::make_unique<std::atomic<uint64_t>[]>(num_partitions_);
  replicas_ = std::make_unique<std::atomic<uint64_t>[]>(num_partitions_);
  for (uint32_t q = 0; q < num_partitions_; ++q) {
    // (h % cM) % M == h % M: partition q starts on server q % M, which makes
    // OwnerOf(node) identical to HashPartitioner::Place(node, M).
    owners_[q].store(q % num_servers_, std::memory_order_relaxed);
    replicas_[q].store(0, std::memory_order_relaxed);
  }
}

std::vector<uint32_t> PartitionMap::OwnerSnapshot() const {
  std::vector<uint32_t> snapshot(num_partitions_);
  for (uint32_t q = 0; q < num_partitions_; ++q) {
    snapshot[q] = owner(q);
  }
  return snapshot;
}

void PartitionMap::AddReplica(uint32_t partition, uint32_t server) {
  GROUTING_CHECK(partition < num_partitions_ && server < num_servers_);
  GROUTING_CHECK_MSG(server < 256, "replica stamps pack 8-bit server ids");
  const uint64_t stamp = replicas_[partition].load(std::memory_order_relaxed);
  const uint32_t count = StampReplicaCount(stamp);
  GROUTING_CHECK_MSG(count < kMaxReplicas, "replica set full");
  GROUTING_CHECK_MSG(server != owner(partition),
                     "the primary is not a replica of itself");
  for (uint32_t i = 0; i < count; ++i) {
    GROUTING_CHECK_MSG(StampReplica(stamp, i) != server, "duplicate replica");
  }
  const uint64_t version = (stamp >> 32) + 1;
  uint64_t next = stamp & 0x00ffffffull;  // keep the existing server bytes
  next |= static_cast<uint64_t>(server) << (8 * count);
  next |= static_cast<uint64_t>(count + 1) << 24;
  next |= version << 32;
  replicas_[partition].store(next, std::memory_order_release);
}

void PartitionMap::RemoveReplica(uint32_t partition, uint32_t server) {
  GROUTING_CHECK(partition < num_partitions_);
  const uint64_t stamp = replicas_[partition].load(std::memory_order_relaxed);
  const uint32_t count = StampReplicaCount(stamp);
  uint64_t next = 0;
  uint32_t kept = 0;
  bool found = false;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t r = StampReplica(stamp, i);
    if (r == server) {
      found = true;
      continue;
    }
    next |= static_cast<uint64_t>(r) << (8 * kept);
    ++kept;
  }
  GROUTING_CHECK_MSG(found, "server is not a replica of this partition");
  next |= static_cast<uint64_t>(kept) << 24;
  next |= ((stamp >> 32) + 1) << 32;
  replicas_[partition].store(next, std::memory_order_release);
}

uint32_t PartitionMap::ReplicatedPartitionCount() const {
  uint32_t n = 0;
  for (uint32_t q = 0; q < num_partitions_; ++q) {
    if (replica_count(q) > 0) {
      ++n;
    }
  }
  return n;
}

std::vector<std::vector<uint32_t>> PartitionMap::ReplicaSnapshot() const {
  std::vector<std::vector<uint32_t>> snapshot(num_partitions_);
  for (uint32_t q = 0; q < num_partitions_; ++q) {
    const uint64_t stamp = ReplicaStamp(q);
    const uint32_t count = StampReplicaCount(stamp);
    snapshot[q].reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      snapshot[q].push_back(StampReplica(stamp, i));
    }
  }
  return snapshot;
}

PartitionMonitor::PartitionMonitor(uint32_t num_partitions, uint32_t num_readers)
    : num_partitions_(num_partitions),
      windows_(num_readers, num_partitions),
      rates_(num_partitions, 0.0) {}

void PartitionMonitor::RollWindow(double decay) {
  GROUTING_CHECK(decay >= 0.0 && decay < 1.0);
  for (uint32_t q = 0; q < num_partitions_; ++q) {
    const uint64_t window = windows_.ExchangeSum(q);
    rates_[q] = decay * rates_[q] + static_cast<double>(window);
    total_recorded_.fetch_add(window, std::memory_order_relaxed);
  }
}

namespace {

// Per-server load with each replicated partition's rate split evenly across
// its holders (the p2c read path spreads replicated reads near-evenly).
// x / 1.0 is exact, so with no replicas the sums are the plain owner sums.
std::vector<double> HolderSplitLoads(uint32_t num_servers, std::span<const double> rates,
                                     const std::vector<uint32_t>& owner,
                                     const std::vector<std::vector<uint32_t>>& replicas) {
  std::vector<double> server_load(num_servers, 0.0);
  for (size_t q = 0; q < owner.size(); ++q) {
    const double share = rates[q] / static_cast<double>(1 + replicas[q].size());
    server_load[owner[q]] += share;
    for (const uint32_t r : replicas[q]) {
      server_load[r] += share;
    }
  }
  return server_load;
}

}  // namespace

std::vector<PartitionMigration> PlanRepartition(const PartitionMap& map,
                                                std::span<const double> rates,
                                                const RepartitionConfig& config) {
  std::vector<PartitionMigration> migrations;
  const uint32_t num_servers = map.num_servers();
  if (!config.enabled() || num_servers < 2) {
    return migrations;
  }
  GROUTING_CHECK(rates.size() == map.num_partitions());

  // Working copy: planned moves shift load between servers immediately, so
  // one round never double-moves against a stale picture. Replicated
  // partitions are never migration victims: their heat is already being
  // split across replicas, and excluding them keeps the single-primary
  // invariant MigratePartition relies on simple.
  const std::vector<uint32_t> owner = map.OwnerSnapshot();
  const std::vector<std::vector<uint32_t>> replicas = map.ReplicaSnapshot();
  std::vector<double> server_load = HolderSplitLoads(num_servers, rates, owner, replicas);
  std::vector<RebalanceItem> items(map.num_partitions());
  for (uint32_t q = 0; q < map.num_partitions(); ++q) {
    items[q] = {q, owner[q], rates[q], replicas[q].empty()};
  }
  const std::vector<RebalanceMove> moves = PlanRebalance(
      server_load, items, config.threshold, config.migration_cap,
      RepartitionConfig::kNoiseSigmas);
  for (const RebalanceMove& move : moves) {
    migrations.push_back({static_cast<uint32_t>(move.key), move.from, move.to});
  }
  return migrations;
}

ReplicationPlan PlanReplication(const PartitionMap& map,
                                std::span<const double> rates,
                                const RepartitionConfig& config) {
  ReplicationPlan plan;
  const uint32_t num_servers = map.num_servers();
  const uint32_t num_partitions = map.num_partitions();
  if (!config.replication_enabled() || num_servers < 2) {
    return plan;
  }
  GROUTING_CHECK(rates.size() == num_partitions);
  const uint32_t max_replicas =
      std::min(config.max_replicas_per_partition, PartitionMap::kMaxReplicas);

  // Working copies; the planned changes below keep server_load current.
  const std::vector<uint32_t> owner = map.OwnerSnapshot();
  std::vector<std::vector<uint32_t>> replicas = map.ReplicaSnapshot();
  std::vector<double> server_load = HolderSplitLoads(num_servers, rates, owner, replicas);
  double total = 0.0;
  for (const double rate : rates) {
    total += rate;
  }
  const double avg_server = total / static_cast<double>(num_servers);

  // Demotions first: one replica per cold replicated partition per round,
  // torn off the most-loaded holder (ties to the lowest server id). "<="
  // via rates[q] > floor guard, so fully idle clusters (avg 0) still
  // reclaim their replicas.
  const double demote_floor = config.replica_demote_threshold * avg_server;
  for (uint32_t q = 0; q < num_partitions; ++q) {
    if (replicas[q].empty() || rates[q] > demote_floor) {
      continue;
    }
    uint32_t victim = replicas[q][0];
    for (const uint32_t r : replicas[q]) {
      if (server_load[r] > server_load[victim] ||
          (server_load[r] == server_load[victim] && r < victim)) {
        victim = r;
      }
    }
    plan.demote.push_back({q, victim});
    const double oh = static_cast<double>(1 + replicas[q].size());
    replicas[q].erase(std::find(replicas[q].begin(), replicas[q].end(), victim));
    // The victim sheds its share; the surviving holders absorb it.
    server_load[victim] -= rates[q] / oh;
    const double delta = rates[q] / (oh - 1.0) - rates[q] / oh;
    server_load[owner[q]] += delta;
    for (const uint32_t r : replicas[q]) {
      server_load[r] += delta;
    }
  }

  // Promotions: top-k hottest qualifying partitions (descending rate, ties
  // to the lowest id), one extra replica each on the least-loaded server
  // not already holding the partition. The hot floor plus the noise floor
  // keep tiny workloads from replicating sampling jitter, and the imbalance
  // gate terminates the controller: once the projected per-server loads sit
  // within the migration trigger ratio, another copy buys nothing — without
  // the gate, steady skew would eventually replicate every warm partition
  // everywhere, paying copy stalls for flatness nobody measures.
  const double imbalance_gate = std::max(config.threshold, 1.0);
  const double avg_partition = total / static_cast<double>(num_partitions);
  const double hot_floor =
      std::max(RepartitionConfig::kNoiseSigmas,
               RepartitionConfig::kReplicaHotFraction * avg_partition);
  std::vector<uint32_t> order(num_partitions);
  for (uint32_t q = 0; q < num_partitions; ++q) {
    order[q] = q;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (rates[a] != rates[b]) {
      return rates[a] > rates[b];
    }
    return a < b;
  });
  for (const uint32_t q : order) {
    if (plan.promote.size() >= config.replication_top_k) {
      break;
    }
    if (rates[q] < hot_floor) {
      break;  // sorted descending: nothing below is hot either
    }
    if (avg_server <= 0.0 ||
        *std::max_element(server_load.begin(), server_load.end()) <=
            imbalance_gate * avg_server) {
      break;  // projected loads already flat enough; stop copying
    }
    if (replicas[q].size() >= max_replicas) {
      continue;
    }
    uint32_t target = num_servers;
    for (uint32_t s = 0; s < num_servers; ++s) {
      if (s == owner[q] ||
          std::find(replicas[q].begin(), replicas[q].end(), s) !=
              replicas[q].end()) {
        continue;
      }
      if (target == num_servers || server_load[s] < server_load[target]) {
        target = s;
      }
    }
    if (target == num_servers) {
      continue;  // every server already holds this partition
    }
    plan.promote.push_back({q, target});
    // The existing holders each shed some share to the new replica.
    const double oh = static_cast<double>(1 + replicas[q].size());
    const double delta = rates[q] / (oh + 1.0) - rates[q] / oh;
    server_load[owner[q]] += delta;
    for (const uint32_t r : replicas[q]) {
      server_load[r] += delta;
    }
    replicas[q].push_back(target);
    server_load[target] += rates[q] / (oh + 1.0);
  }
  return plan;
}

}  // namespace grouting
