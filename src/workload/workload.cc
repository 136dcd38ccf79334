#include "src/workload/workload.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "src/graph/traversal.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

QueryType DrawType(const WorkloadConfig& config, Rng& rng) {
  const double total =
      config.weight_aggregation + config.weight_random_walk + config.weight_reachability;
  GROUTING_CHECK(total > 0.0);
  const double r = rng.NextDouble() * total;
  if (r < config.weight_aggregation) {
    return QueryType::kNeighborAggregation;
  }
  if (r < config.weight_aggregation + config.weight_random_walk) {
    return QueryType::kRandomWalk;
  }
  return QueryType::kReachability;
}

// `near` holds the nodes within 2h hops of the query node once computed;
// it is filled only when a reachability query draws a near target.
Query MakeQuery(const Graph& g, NodeId query_node, uint64_t id,
                const WorkloadConfig& config, Rng& rng,
                std::optional<std::vector<NodeId>>& near) {
  Query q;
  q.id = id;
  q.node = query_node;
  q.hops = config.hops;
  q.restart_prob = config.restart_prob;
  q.seed = rng.Next();
  q.type = DrawType(config, rng);
  if (q.type == QueryType::kReachability) {
    // Target within 2h hops half the time (bidirectional search does real
    // work), otherwise uniform (usually unreachable within h).
    if (rng.NextBool(0.5)) {
      if (!near.has_value()) {
        near = KHopNeighborhood(g, query_node, 2 * config.hops);
      }
      if (!near->empty()) {
        q.target = (*near)[rng.NextBounded(near->size())];
      }
    }
    if (q.target == kInvalidNode) {
      q.target = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    }
  }
  return q;
}

}  // namespace

std::vector<Query> GenerateHotspotWorkload(const Graph& g, const WorkloadConfig& config) {
  GROUTING_CHECK(g.num_nodes() > 0);
  Rng rng(config.seed);
  std::vector<Query> queries;
  queries.reserve(config.num_hotspots * config.queries_per_hotspot);
  uint64_t id = 0;
  for (size_t hs = 0; hs < config.num_hotspots; ++hs) {
    const auto center = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const auto region = KHopNeighborhood(g, center, config.hotspot_radius);
    for (size_t i = 0; i < config.queries_per_hotspot; ++i) {
      // Query nodes at most r hops from the center (the center itself when
      // the region is empty, e.g. isolated nodes).
      const NodeId node =
          region.empty() ? center : region[rng.NextBounded(region.size())];
      std::optional<std::vector<NodeId>> near;
      queries.push_back(MakeQuery(g, node, id++, config, rng, near));
    }
  }
  return queries;
}

std::vector<Query> GenerateSkewedSessionWorkload(const Graph& g,
                                                 const SkewedWorkloadConfig& config) {
  GROUTING_CHECK(g.num_nodes() > 0);
  GROUTING_CHECK(config.num_sessions > 0);
  GROUTING_CHECK(config.zipf_s >= 0.0);
  Rng rng(config.seed ^ 0x5ca1ab1eULL);

  // Session keys: distinct query nodes where the graph allows it (a session
  // is a sticky key, so duplicates would silently merge sessions).
  std::vector<NodeId> sessions;
  sessions.reserve(config.num_sessions);
  std::unordered_set<NodeId> used;
  for (size_t i = 0; i < config.num_sessions; ++i) {
    auto node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    for (int attempt = 0; attempt < 64 && used.count(node) > 0; ++attempt) {
      node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    }
    used.insert(node);
    sessions.push_back(node);
  }

  // Zipf CDF over session ranks: weight(i) = 1 / (i+1)^s.
  std::vector<double> cdf(sessions.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), config.zipf_s);
    cdf[i] = total;
  }

  WorkloadConfig wl;
  wl.hops = config.hops;
  wl.weight_aggregation = config.weight_aggregation;
  wl.weight_random_walk = config.weight_random_walk;
  wl.weight_reachability = config.weight_reachability;
  wl.restart_prob = config.restart_prob;

  // Every query starts at a session node, so each session's neighbourhood
  // is computed at most once, the first time one of its queries needs it.
  std::vector<std::optional<std::vector<NodeId>>> near(sessions.size());

  std::vector<Query> queries;
  queries.reserve(config.num_queries);
  for (uint64_t id = 0; id < config.num_queries; ++id) {
    const double r = rng.NextDouble() * total;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), r) - cdf.begin());
    const size_t session = std::min(rank, sessions.size() - 1);
    queries.push_back(MakeQuery(g, sessions[session], id, wl, rng, near[session]));
  }
  return queries;
}

std::vector<Query> GenerateUniformWorkload(const Graph& g, size_t count,
                                           const WorkloadConfig& config) {
  GROUTING_CHECK(g.num_nodes() > 0);
  Rng rng(config.seed ^ 0xabcdef12345ULL);
  std::vector<Query> queries;
  queries.reserve(count);
  for (uint64_t id = 0; id < count; ++id) {
    const auto node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    std::optional<std::vector<NodeId>> near;
    queries.push_back(MakeQuery(g, node, id, config, rng, near));
  }
  return queries;
}

}  // namespace grouting
