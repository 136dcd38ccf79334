#include "src/frontend/router_fleet.h"

#include <algorithm>
#include <utility>

namespace grouting {

static_assert(RebalanceConfig::kStateCarryWeight > 0.0 &&
                  RebalanceConfig::kStateCarryWeight <= 1.0,
              "the migration carry weight must lie in (0, 1]");

RouterFleet::RouterFleet(std::unique_ptr<RoutingStrategy> strategy,
                         uint32_t num_processors, FleetConfig config)
    : config_(config),
      num_processors_(num_processors),
      splitter_(config.splitter, config.num_shards) {
  GROUTING_CHECK(strategy != nullptr);
  GROUTING_CHECK(config_.num_shards > 0);
  std::vector<std::unique_ptr<RoutingStrategy>> strategies;
  strategies.reserve(config_.num_shards);
  for (uint32_t s = 1; s < config_.num_shards; ++s) {
    auto clone = strategy->Clone();
    GROUTING_CHECK_MSG(clone != nullptr,
                       "num_router_shards > 1 requires a Clone()-able strategy");
    strategies.push_back(std::move(clone));
  }
  strategies.insert(strategies.begin(), std::move(strategy));
  shards_.reserve(config_.num_shards);
  for (auto& s : strategies) {
    shards_.push_back(
        std::make_unique<Router>(std::move(s), num_processors_, config_.router));
  }
  remote_scratch_.assign(num_processors_, 0);
  order_scratch_.resize(config_.num_shards);
}

RouterFleet::RoutedArrival RouterFleet::Enqueue(const Query& q) {
  RoutedArrival routed;
  routed.shard = splitter_.ShardFor(q);
  routed.processor = shards_[routed.shard]->Enqueue(q);
  return routed;
}

std::optional<Query> RouterFleet::NextForProcessor(uint32_t p) {
  GROUTING_CHECK(p < num_processors_);
  // Try shards hottest-first for this processor (stable on ties, so a
  // single shard degenerates to exactly the classic router call).
  for (uint32_t s = 0; s < num_shards(); ++s) {
    order_scratch_[s] = s;
  }
  std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return shards_[a]->QueueLengths()[p] >
                            shards_[b]->QueueLengths()[p];
                   });
  for (const uint32_t s : order_scratch_) {
    if (auto q = shards_[s]->NextForProcessor(p); q.has_value()) {
      return q;
    }
  }
  return std::nullopt;
}

bool RouterFleet::HasPending() const {
  for (const auto& shard : shards_) {
    if (shard->HasPending()) {
      return true;
    }
  }
  return false;
}

size_t RouterFleet::pending() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->pending();
  }
  return total;
}

void RouterFleet::GossipRound() {
  if (num_shards() < 2) {
    return;
  }
  // Remote-load exchange: every shard learns the sum of its siblings'
  // per-processor queue lengths as of this round.
  for (uint32_t i = 0; i < num_shards(); ++i) {
    std::fill(remote_scratch_.begin(), remote_scratch_.end(), 0u);
    for (uint32_t j = 0; j < num_shards(); ++j) {
      if (j == i) {
        continue;
      }
      const auto lengths = shards_[j]->QueueLengths();
      for (uint32_t p = 0; p < num_processors_; ++p) {
        remote_scratch_[p] += lengths[p];
      }
    }
    shards_[i]->SetRemoteLoad(remote_scratch_);
  }
  BlendStrategies();
  // Adaptive re-splitting rides the same round: the routed-count snapshot it
  // consumes is exactly what this round just exchanged.
  RebalanceRound();
}

void RouterFleet::BlendStrategies() {
  if (num_shards() < 2) {
    return;
  }
  gossip_stats_.last_divergence_before = CurrentEmaDivergence();
  GossipBlendStrategies(Strategies());
  gossip_stats_.last_divergence_after = CurrentEmaDivergence();
  gossip_stats_.rounds += 1;
}

bool RouterFleet::rebalance_enabled() const {
  return num_shards() > 1 && splitter_.kind() == SplitterKind::kAdaptive &&
         config_.rebalance.enabled();
}

size_t RouterFleet::RebalanceRound() {
  if (!rebalance_enabled()) {
    return 0;
  }
  const auto migrations = ResplitSessions(RoutedPerShard());
  CarrySessionState(migrations);
  return migrations.size();
}

std::vector<SessionMigration> RouterFleet::ResplitSessions(
    std::span<const uint64_t> routed) {
  return splitter_.Rebalance(routed, config_.rebalance);
}

void RouterFleet::CarrySessionState(std::span<const SessionMigration> migrations) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // tiny: linear dedupe
  for (const SessionMigration& m : migrations) {
    const auto pair = std::make_pair(m.from, m.to);
    if (std::find(pairs.begin(), pairs.end(), pair) == pairs.end()) {
      pairs.push_back(pair);
    }
  }
  for (const auto& [from, to] : pairs) {
    shards_[to]->strategy().MergeRemoteState(shards_[from]->strategy(),
                                             RebalanceConfig::kStateCarryWeight);
  }
}

std::vector<uint64_t> RouterFleet::RoutedPerShard() const {
  std::vector<uint64_t> routed(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    routed[s] = shards_[s]->stats().routed;
  }
  return routed;
}

double RouterFleet::CurrentEmaDivergence() const {
  const auto views = StrategyViews();
  return CrossShardStateDivergence(views);
}

std::vector<RoutingStrategy*> RouterFleet::Strategies() {
  std::vector<RoutingStrategy*> strategies;
  strategies.reserve(shards_.size());
  for (auto& shard : shards_) {
    strategies.push_back(&shard->strategy());
  }
  return strategies;
}

std::vector<const RoutingStrategy*> RouterFleet::StrategyViews() const {
  std::vector<const RoutingStrategy*> views;
  views.reserve(shards_.size());
  for (const auto& shard : shards_) {
    views.push_back(&shard->strategy());
  }
  return views;
}

RouterStats RouterFleet::AggregateRouterStats() const {
  RouterStats total;
  total.per_processor.assign(num_processors_, 0);
  for (const auto& shard : shards_) {
    const RouterStats& s = shard->stats();
    total.routed += s.routed;
    total.dispatched += s.dispatched;
    total.steals += s.steals;
    for (uint32_t p = 0; p < num_processors_; ++p) {
      total.per_processor[p] += s.per_processor[p];
    }
  }
  return total;
}

}  // namespace grouting
