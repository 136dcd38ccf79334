#include "src/query/query.h"

#include <algorithm>

#include "src/util/node_table.h"
#include "src/util/rng.h"

namespace grouting {

std::string QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kNeighborAggregation:
      return "neighbor_aggregation";
    case QueryType::kRandomWalk:
      return "random_walk";
    case QueryType::kReachability:
      return "reachability";
  }
  return "unknown";
}

QueryResult ExecuteQuery(const Query& q, NodeDataSource& source) {
  switch (q.type) {
    case QueryType::kNeighborAggregation:
      return ExecuteNeighborAggregation(q, source);
    case QueryType::kRandomWalk:
      return ExecuteRandomWalk(q, source);
    case QueryType::kReachability:
      return ExecuteReachability(q, source);
  }
  GROUTING_CHECK_MSG(false, "unknown query type");
  return {};
}

QueryResult ExecuteNeighborAggregation(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kNeighborAggregation;

  // Level-synchronous BFS. Every node within h hops is *fetched* (the paper's
  // queries retrieve all h-hop neighbours — labels live in their entries),
  // but only levels < h are expanded.
  NodeSet seen;
  seen.Insert(q.node);
  std::vector<NodeId> frontier{q.node};
  std::vector<AdjacencyPtr> entries = source.FetchBatch(frontier);
  std::vector<NodeId> next;
  auto visit = [&](const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      if (seen.Insert(e.dst)) {
        next.push_back(e.dst);
      }
    }
  };
  for (int32_t depth = 0; depth < q.hops && !frontier.empty(); ++depth) {
    next.clear();
    for (const AdjacencyPtr& entry : entries) {
      if (entry == nullptr) {
        continue;
      }
      visit(entry->out);
      visit(entry->in);
    }
    frontier.swap(next);
    if (frontier.empty()) {
      break;
    }
    if (depth + 1 == q.hops) {
      // The last level is fetched like the others but never expanded, so
      // only its labels are read.
      const auto labels = source.FetchLabels(frontier);
      result.aggregate +=
          q.label_filter == kNoLabel
              ? frontier.size()
              : static_cast<uint64_t>(
                    std::count(labels.begin(), labels.end(), q.label_filter));
      break;
    }
    entries = source.FetchBatch(frontier);
    if (q.label_filter == kNoLabel) {
      result.aggregate += frontier.size();
    } else {
      for (const AdjacencyPtr& entry : entries) {
        if (entry != nullptr && entry->node_label == q.label_filter) {
          ++result.aggregate;
        }
      }
    }
  }
  return result;
}

QueryResult ExecuteRandomWalk(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kRandomWalk;
  Rng rng(q.seed ^ 0x5bd1e995u);

  NodeSet distinct;
  distinct.Insert(q.node);
  NodeId current = q.node;
  for (int32_t step = 0; step < q.hops; ++step) {
    const AdjacencyPtr entry = source.FetchOne(current);
    if (entry == nullptr) {
      break;
    }
    if (step > 0 && rng.NextBool(q.restart_prob)) {
      current = q.node;
      distinct.Insert(current);
      continue;
    }
    // Uniform pick over the bi-directed neighbour list: out-edges, then in.
    const size_t degree = entry->out.size() + entry->in.size();
    if (degree == 0) {
      current = q.node;  // dead end: restart
      continue;
    }
    const size_t pick = rng.NextBounded(degree);
    current = pick < entry->out.size() ? entry->out[pick].dst
                                       : entry->in[pick - entry->out.size()].dst;
    distinct.Insert(current);
  }
  result.walk_end = current;
  result.walk_distinct_nodes = distinct.size();
  return result;
}

QueryResult ExecuteReachability(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kReachability;
  GROUTING_CHECK(q.target != kInvalidNode);

  if (q.node == q.target) {
    result.reachable = true;
    result.distance = 0;
    return result;
  }
  if (q.hops <= 0) {
    return result;
  }

  // Bidirectional BFS: forward over out-edges from the source, backward over
  // in-edges from the target (feasible because each adjacency entry stores
  // both directions). Each round expands the smaller frontier.
  NodeTable<int32_t> fwd_dist;
  NodeTable<int32_t> bwd_dist;
  fwd_dist.Insert(q.node, 0);
  bwd_dist.Insert(q.target, 0);
  std::vector<NodeId> fwd_frontier{q.node};
  std::vector<NodeId> bwd_frontier{q.target};
  int32_t fwd_depth = 0;
  int32_t bwd_depth = 0;

  auto passes_filter = [&](Label label, NodeId v) {
    // Endpoints are exempt from the label constraint.
    if (q.label_filter == kNoLabel || v == q.node || v == q.target) {
      return true;
    }
    return label == q.label_filter;
  };

  while (!fwd_frontier.empty() && !bwd_frontier.empty() &&
         fwd_depth + bwd_depth < q.hops) {
    const bool expand_fwd = fwd_frontier.size() <= bwd_frontier.size();
    auto& frontier = expand_fwd ? fwd_frontier : bwd_frontier;
    auto& dist = expand_fwd ? fwd_dist : bwd_dist;
    auto& other_dist = expand_fwd ? bwd_dist : fwd_dist;
    int32_t& depth = expand_fwd ? fwd_depth : bwd_depth;

    const auto entries = source.FetchBatch(frontier);
    std::vector<NodeId> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (entries[i] == nullptr) {
        continue;
      }
      const auto& edges = expand_fwd ? entries[i]->out : entries[i]->in;
      for (const Edge& e : edges) {
        if (!dist.Insert(e.dst, depth + 1)) {
          continue;
        }
        if (const int32_t* other = other_dist.Find(e.dst); other != nullptr) {
          const int32_t total = depth + 1 + *other;
          if (total <= q.hops) {
            result.reachable = true;
            result.distance = total;
            return result;
          }
        }
        next.push_back(e.dst);
      }
    }
    // Apply the label filter to the next frontier (requires their labels).
    if (q.label_filter != kNoLabel && !next.empty()) {
      const auto next_labels = source.FetchLabels(next);
      std::vector<NodeId> kept;
      for (size_t i = 0; i < next.size(); ++i) {
        if (next_labels[i].has_value() && passes_filter(*next_labels[i], next[i])) {
          kept.push_back(next[i]);
        }
      }
      next.swap(kept);
    }
    frontier = std::move(next);
    ++depth;
  }
  return result;
}

std::vector<std::optional<Label>> NodeDataSource::FetchLabels(
    std::span<const NodeId> nodes) {
  std::vector<std::optional<Label>> labels(nodes.size());
  const std::vector<AdjacencyPtr> entries = FetchBatch(nodes);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i] != nullptr) {
      labels[i] = entries[i]->node_label;
    }
  }
  return labels;
}

std::vector<AdjacencyPtr> DirectGraphSource::FetchBatch(std::span<const NodeId> nodes) {
  std::vector<AdjacencyPtr> result;
  result.reserve(nodes.size());
  trace_.level_stats.emplace_back();
  FetchTrace::Level& level = trace_.level_stats.back();
  FetchTrace::Batch batch;
  batch.server = 0;
  batch.level = trace_.levels;
  for (NodeId u : nodes) {
    if (u >= graph_.num_nodes()) {
      result.push_back(nullptr);
      continue;
    }
    auto entry = std::make_shared<AdjacencyEntry>();
    entry->node = u;
    entry->node_label = graph_.node_label(u);
    const auto out = graph_.OutNeighbors(u);
    const auto in = graph_.InNeighbors(u);
    entry->out.assign(out.begin(), out.end());
    entry->in.assign(in.begin(), in.end());
    trace_.bytes_fetched += entry->SerializedBytes();
    batch.bytes += entry->SerializedBytes();
    batch.values += 1;
    ++trace_.cache_misses;
    ++level.misses;
    ++level.fetched;
    ++trace_.visited;
    result.push_back(std::move(entry));
  }
  if (batch.values > 0) {
    trace_.batches.push_back(batch);
  }
  ++trace_.levels;
  return result;
}

}  // namespace grouting
