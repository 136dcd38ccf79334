#include "src/frontend/splitter.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace grouting {

static_assert(RebalanceConfig::kHysteresis > 0.0 && RebalanceConfig::kHysteresis <= 1.0,
              "the hysteresis water mark must lie in (0, 1]");

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
  for (auto& [node, session] : sessions_) {
    session.rate =
        config.load_decay * session.rate + static_cast<double>(session.window);
    session.window = 0;
  }

  const auto ratio = [&](uint32_t hi, uint32_t lo) {
    return (recent_load_[hi] + 1.0) / (recent_load_[lo] + 1.0);
  };
  const double stop_ratio =
      std::max(1.0, RebalanceConfig::kHysteresis * config.threshold);

  bool triggered = false;
  while (migrations.size() < config.migration_cap) {
    uint32_t hottest = 0;
    uint32_t coolest = 0;
    for (uint32_t s = 1; s < num_shards_; ++s) {
      if (recent_load_[s] > recent_load_[hottest]) {
        hottest = s;
      }
      if (recent_load_[s] < recent_load_[coolest]) {
        coolest = s;
      }
    }
    const double r = ratio(hottest, coolest);
    const double gap_floor =
        config.noise_sigmas * std::sqrt(std::max(recent_load_[hottest], 1.0));
    if (recent_load_[hottest] - recent_load_[coolest] <= gap_floor) {
      break;  // the spread is within sampling noise: not actionable skew
    }
    if (!triggered) {
      if (r <= config.threshold) {
        return migrations;  // hysteresis: below the trigger, leave it alone
      }
      triggered = true;
    } else if (r <= stop_ratio) {
      break;  // drained below the water mark
    }

    // Move the session that lands the pair closest to even: resulting
    // spread |gap - 2a|, candidates restricted to a < gap so every move
    // strictly narrows the spread — a session hotter than the whole gap
    // would only relocate the hotspot and invite the next round to move it
    // straight back (thrash).
    const double gap = recent_load_[hottest] - recent_load_[coolest];
    NodeId victim = kInvalidNode;
    double victim_spread = gap;
    double victim_rate = 0.0;
    for (const auto& [node, session] : sessions_) {
      if (session.shard != hottest || session.rate <= 0.0) {
        continue;
      }
      if (session.rate >= gap) {
        continue;
      }
      const double spread = std::abs(gap - 2.0 * session.rate);
      if (victim == kInvalidNode || spread < victim_spread ||
          (spread == victim_spread && node < victim)) {
        victim = node;
        victim_spread = spread;
        victim_rate = session.rate;
      }
    }
    if (victim == kInvalidNode) {
      break;  // nothing movable without widening the spread
    }

    // The session's rate moves with it, so the corrected skew is already
    // reflected when the next round's snapshot arrives.
    Session& moved = sessions_.at(victim);
    moved.shard = coolest;
    sessions_per_shard_[hottest] -= 1;
    sessions_per_shard_[coolest] += 1;
    recent_load_[hottest] -= victim_rate;
    recent_load_[coolest] += victim_rate;
    migrations.push_back({victim, hottest, coolest});
    stats_.migrations += 1;
  }
  return migrations;
}

uint32_t ArrivalSplitter::SessionShard(NodeId session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? num_shards_ : it->second.shard;
}

double RoutedLoadImbalance(std::span<const uint64_t> routed) {
  return MaxMinLoadRatio(routed);
}

}  // namespace grouting
