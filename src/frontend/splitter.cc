#include "src/frontend/splitter.h"

#include "src/util/check.h"
#include "src/util/stats.h"

namespace grouting {

std::string SplitterKindName(SplitterKind kind) {
  switch (kind) {
    case SplitterKind::kRoundRobin:
      return "round_robin";
    case SplitterKind::kHash:
      return "hash";
    case SplitterKind::kSticky:
      return "sticky";
    case SplitterKind::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

ArrivalSplitter::ArrivalSplitter(SplitterKind kind, uint32_t num_shards,
                                 uint32_t session_capacity, uint32_t hash_seed)
    : kind_(kind),
      num_shards_(num_shards),
      session_capacity_(session_capacity),
      hash_seed_(hash_seed) {
  GROUTING_CHECK(num_shards_ > 0);
  GROUTING_CHECK(session_capacity_ > 0);
  if (kind_ == SplitterKind::kSticky || kind_ == SplitterKind::kAdaptive) {
    sessions_per_shard_.assign(num_shards_, 0);
    last_loads_.assign(num_shards_, 0);
    recent_load_.assign(num_shards_, 0.0);
  }
}

uint32_t ArrivalSplitter::AssignNewSession(NodeId node) {
  if (sessions_.size() >= session_capacity_) {
    // FIFO eviction: drop the oldest live session; its slot takes the new one.
    const NodeId victim = ring_[ring_next_];
    auto vit = sessions_.find(victim);
    GROUTING_CHECK(vit != sessions_.end());
    sessions_per_shard_[vit->second.shard] -= 1;
    sessions_.erase(vit);
    stats_.evictions += 1;
  } else {
    ring_.resize(sessions_.size() + 1);
  }
  uint32_t least = 0;
  for (uint32_t s = 1; s < num_shards_; ++s) {
    if (sessions_per_shard_[s] < sessions_per_shard_[least]) {
      least = s;
    }
  }
  ring_[ring_next_] = node;
  ring_next_ = (ring_next_ + 1) % session_capacity_;
  sessions_.emplace(node, Session{least, 0});
  sessions_per_shard_[least] += 1;
  return least;
}

uint32_t ArrivalSplitter::ShardFor(const Query& q) {
  if (num_shards_ == 1) {
    return 0;
  }
  switch (kind_) {
    case SplitterKind::kRoundRobin:
      return static_cast<uint32_t>(rotor_++ % num_shards_);
    case SplitterKind::kHash:
      return static_cast<uint32_t>(Murmur3Hash64(q.node, hash_seed_) % num_shards_);
    case SplitterKind::kSticky:
    case SplitterKind::kAdaptive: {
      auto it = sessions_.find(q.node);
      if (it == sessions_.end()) {
        const uint32_t shard = AssignNewSession(q.node);
        it = sessions_.find(q.node);
        GROUTING_CHECK(it != sessions_.end() && it->second.shard == shard);
      }
      it->second.window += 1;
      return it->second.shard;
    }
  }
  GROUTING_CHECK_MSG(false, "unknown splitter kind");
  return 0;
}

std::vector<SessionMigration> ArrivalSplitter::Rebalance(
    std::span<const uint64_t> shard_loads, const RebalanceConfig& config) {
  std::vector<SessionMigration> migrations;
  if (kind_ != SplitterKind::kAdaptive || num_shards_ < 2 || !config.enabled()) {
    return migrations;
  }
  GROUTING_CHECK(shard_loads.size() == num_shards_);
  GROUTING_CHECK(config.load_decay >= 0.0 && config.load_decay < 1.0);
  stats_.rebalance_rounds += 1;

  // Roll this round's delta into the decayed rate estimates — the shards'
  // from the gossip snapshot, the sessions' from their arrival windows.
  // Cumulative counters monotonically dilute skew; the decayed view keeps
  // the controller sensitive to the CURRENT arrival rate all run long.
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint64_t delta =
        shard_loads[s] >= last_loads_[s] ? shard_loads[s] - last_loads_[s] : 0;
    recent_load_[s] = config.load_decay * recent_load_[s] + static_cast<double>(delta);
    last_loads_[s] = shard_loads[s];
  }
  std::vector<RebalanceItem> items;
  items.reserve(sessions_.size());
  for (auto& [node, session] : sessions_) {
    session.rate =
        config.load_decay * session.rate + static_cast<double>(session.window);
    session.window = 0;
    items.push_back({node, session.shard, session.rate});
  }

  // The shared greedy round moves sessions off the hottest shard; each
  // moved session carries its rate, so already-corrected skew does not
  // re-trigger when the next round's snapshot arrives.
  const std::vector<RebalanceMove> moves = PlanRebalance(
      recent_load_, items, config.threshold, config.migration_cap, config.noise_sigmas);
  for (const RebalanceMove& move : moves) {
    const auto session = static_cast<NodeId>(move.key);
    sessions_.at(session).shard = move.to;
    sessions_per_shard_[move.from] -= 1;
    sessions_per_shard_[move.to] += 1;
    migrations.push_back({session, move.from, move.to});
  }
  stats_.migrations += migrations.size();
  return migrations;
}

uint32_t ArrivalSplitter::SessionShard(NodeId session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? num_shards_ : it->second.shard;
}

}  // namespace grouting
