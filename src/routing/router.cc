#include "src/routing/router.h"

#include <algorithm>

namespace grouting {

Router::Router(std::unique_ptr<RoutingStrategy> strategy, uint32_t num_processors,
               RouterConfig config)
    : strategy_(std::move(strategy)), num_processors_(num_processors), config_(config) {
  GROUTING_CHECK(strategy_ != nullptr);
  GROUTING_CHECK(num_processors_ > 0);
  queues_.resize(num_processors_);
  lengths_.assign(num_processors_, 0);
  remote_load_.assign(num_processors_, 0);
  combined_load_.assign(num_processors_, 0);
  stats_.per_processor.assign(num_processors_, 0);
}

void Router::SetRemoteLoad(std::span<const uint32_t> remote) {
  GROUTING_CHECK(remote.size() == num_processors_);
  has_remote_load_ = false;
  for (uint32_t p = 0; p < num_processors_; ++p) {
    remote_load_[p] = remote[p];
    has_remote_load_ |= remote[p] != 0;
  }
}

uint32_t Router::Route(const Query& q, std::span<const uint32_t> queue_lengths) {
  RouterContext ctx;
  ctx.num_processors = num_processors_;
  ctx.queue_lengths = queue_lengths;
  const uint32_t p = strategy_->Route(q.node, ctx);
  GROUTING_CHECK(p < num_processors_);
  ++stats_.routed;
  return p;
}

uint32_t Router::Enqueue(const Query& q) {
  std::span<const uint32_t> load = lengths_;
  if (has_remote_load_) {
    for (uint32_t p = 0; p < num_processors_; ++p) {
      combined_load_[p] = lengths_[p] + remote_load_[p];
    }
    load = combined_load_;
  }
  const uint32_t p = Route(q, load);
  queues_[p].push_back(q);
  ++lengths_[p];
  ++pending_;
  return p;
}

std::optional<Query> Router::NextForProcessor(uint32_t p) {
  GROUTING_CHECK(p < num_processors_);
  uint32_t source = p;
  if (queues_[p].empty()) {
    if (!config_.enable_stealing) {
      return std::nullopt;
    }
    // Steal the OLDEST query of the longest queue: the head has waited the
    // longest, and the victim's newer entries are the hotspot run whose
    // locality its cache is currently being warmed for.
    uint32_t longest = p;
    for (uint32_t i = 0; i < num_processors_; ++i) {
      if (lengths_[i] > lengths_[longest]) {
        longest = i;
      }
    }
    if (queues_[longest].empty()) {
      return std::nullopt;
    }
    source = longest;
  }

  Query q = queues_[source].front();
  queues_[source].pop_front();
  if (source != p) {
    ++stats_.steals;
  }
  --lengths_[source];
  --pending_;
  ++stats_.dispatched;
  stats_.per_processor[p] += 1;
  // `source` is the queue the query was routed onto, so the strategy sees
  // both the executor and the original target (they differ on a steal).
  strategy_->OnDispatch(q.node, p, source);
  return q;
}

}  // namespace grouting
