#include "src/frontend/gossip.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace grouting {

static_assert(kGossipMergeWeight > 0.0 && kGossipMergeWeight <= 1.0,
              "the gossip blend weight must lie in (0, 1]");

double CrossShardStateDivergence(std::span<const RoutingStrategy* const> shards) {
  if (shards.size() < 2) {
    return 0.0;
  }
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    const auto a = shards[i]->GossipState();
    if (a.empty()) {
      return 0.0;  // stateless strategy: nothing to diverge
    }
    for (size_t j = i + 1; j < shards.size(); ++j) {
      const auto b = shards[j]->GossipState();
      GROUTING_CHECK(a.size() == b.size());
      double sq = 0.0;
      for (size_t k = 0; k < a.size(); ++k) {
        const double d = a[k] - b[k];
        sq += d * d;
      }
      total += std::sqrt(sq);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

void GossipBlendStrategies(std::span<RoutingStrategy* const> shards) {
  if (shards.size() < 2) {
    return;
  }
  bool stateful = false;
  for (const RoutingStrategy* s : shards) {
    stateful |= !s->GossipState().empty();
  }
  if (!stateful) {
    return;  // stateless strategies: nothing to blend, skip the clones
  }
  std::vector<std::unique_ptr<RoutingStrategy>> snapshots;
  snapshots.reserve(shards.size());
  for (const RoutingStrategy* s : shards) {
    auto snap = s->Clone();
    GROUTING_CHECK_MSG(snap != nullptr, "gossip requires a Clone()-able strategy");
    snapshots.push_back(std::move(snap));
  }
  // Target blend for shard i: (1 - (N-1)w) * own + w * sum(sibling snapshots)
  // with uniform w = kGossipMergeWeight / N. MergeRemoteState is pairwise and
  // sequential, which left alone would weight later siblings geometrically
  // more; merging sibling k of m with corrected weight w / (1 - (m-k)w)
  // yields exactly the uniform target (and is what keeps the round
  // symmetric and order-independent, as gossip.h promises).
  const double w = kGossipMergeWeight / static_cast<double>(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    const size_t m = shards.size() - 1;
    size_t k = 1;
    for (size_t j = 0; j < shards.size(); ++j) {
      if (j != i) {
        const double corrected = w / (1.0 - static_cast<double>(m - k) * w);
        shards[i]->MergeRemoteState(*snapshots[j], corrected);
        ++k;
      }
    }
  }
}

}  // namespace grouting
