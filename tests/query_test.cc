// Tests for the query executors: results cross-checked against brute-force
// references, label-constrained variants, determinism, and trace accounting
// — through both the direct graph source and the cached storage source.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/storage/storage_tier.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

Query Agg(NodeId node, int32_t hops) {
  Query q;
  q.type = QueryType::kNeighborAggregation;
  q.node = node;
  q.hops = hops;
  return q;
}

Query Reach(NodeId from, NodeId to, int32_t hops) {
  Query q;
  q.type = QueryType::kReachability;
  q.node = from;
  q.target = to;
  q.hops = hops;
  return q;
}

Query Walk(NodeId node, int32_t steps, uint64_t seed) {
  Query q;
  q.type = QueryType::kRandomWalk;
  q.node = node;
  q.hops = steps;
  q.seed = seed;
  return q;
}

TEST(NeighborAggregationTest, MatchesKHopNeighborhood) {
  Graph g = GenerateErdosRenyi(300, 1200, 1);
  DirectGraphSource source(g);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const int32_t h = 1 + static_cast<int32_t>(rng.NextBounded(3));
    const auto result = ExecuteQuery(Agg(u, h), source);
    EXPECT_EQ(result.aggregate, KHopNeighborhood(g, u, h).size());
  }
}

TEST(NeighborAggregationTest, ZeroHops) {
  Graph g = GenerateErdosRenyi(50, 200, 3);
  DirectGraphSource source(g);
  EXPECT_EQ(ExecuteQuery(Agg(0, 0), source).aggregate, 0u);
}

TEST(NeighborAggregationTest, IsolatedNode) {
  GraphBuilder b;
  b.AddNode();
  b.AddNode();
  Graph g = b.Build();
  DirectGraphSource source(g);
  EXPECT_EQ(ExecuteQuery(Agg(0, 2), source).aggregate, 0u);
}

TEST(NeighborAggregationTest, LabelFilterCountsOnlyMatches) {
  GraphBuilder b;
  b.AddNode(0, 1);
  b.AddNode(1, 2);
  b.AddNode(2, 2);
  b.AddNode(3, 3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  DirectGraphSource source(g);
  Query q = Agg(0, 2);
  q.label_filter = 2;
  // Within 2 hops of 0: nodes 1 (label 2), 2 (label 2), 3 (label 3).
  EXPECT_EQ(ExecuteQuery(q, source).aggregate, 2u);
}

TEST(ReachabilityTest, MatchesBfs) {
  Graph g = GenerateBarabasiAlbert(300, 3, 4);
  DirectGraphSource source(g);
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const int32_t h = 1 + static_cast<int32_t>(rng.NextBounded(4));
    const auto result = ExecuteQuery(Reach(u, v, h), source);
    // Reference: directed BFS distance within h.
    BfsOptions opts;
    opts.bidirected = false;
    opts.max_depth = h;
    auto dist = BfsDistances(g, u, opts);
    const bool expected = dist[v] != kUnreachable && dist[v] <= h;
    EXPECT_EQ(result.reachable, expected) << "u=" << u << " v=" << v << " h=" << h;
    if (result.reachable) {
      EXPECT_EQ(result.distance, dist[v]);
    }
  }
}

TEST(ReachabilityTest, SelfIsReachableAtZero) {
  Graph g = GenerateErdosRenyi(20, 60, 6);
  DirectGraphSource source(g);
  const auto result = ExecuteQuery(Reach(3, 3, 2), source);
  EXPECT_TRUE(result.reachable);
  EXPECT_EQ(result.distance, 0);
}

TEST(ReachabilityTest, DirectedEdgesOnly) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  DirectGraphSource source(g);
  EXPECT_TRUE(ExecuteQuery(Reach(0, 2, 2), source).reachable);
  // The reverse direction has no directed path.
  EXPECT_FALSE(ExecuteQuery(Reach(2, 0, 2), source).reachable);
}

TEST(ReachabilityTest, HopBudgetRespected) {
  Graph g = [] {
    GraphBuilder b;
    for (NodeId u = 0; u < 6; ++u) {
      b.AddEdge(u, u + 1);
    }
    return b.Build();
  }();
  DirectGraphSource source(g);
  EXPECT_FALSE(ExecuteQuery(Reach(0, 6, 5), source).reachable);
  EXPECT_TRUE(ExecuteQuery(Reach(0, 6, 6), source).reachable);
}

TEST(ReachabilityTest, LabelConstrainedPath) {
  GraphBuilder b;
  b.AddNode(0, 1);
  b.AddNode(1, 9);  // intermediate with wrong label
  b.AddNode(2, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  DirectGraphSource source(g);
  Query q = Reach(0, 2, 4);
  q.label_filter = 5;  // node 1 fails the filter -> unreachable
  EXPECT_FALSE(ExecuteQuery(q, source).reachable);
  q.label_filter = 9;  // node 1 passes
  EXPECT_TRUE(ExecuteQuery(q, source).reachable);
}

TEST(RandomWalkTest, DeterministicInSeed) {
  Graph g = GenerateBarabasiAlbert(200, 3, 7);
  DirectGraphSource s1(g);
  DirectGraphSource s2(g);
  const auto r1 = ExecuteQuery(Walk(5, 10, 42), s1);
  const auto r2 = ExecuteQuery(Walk(5, 10, 42), s2);
  EXPECT_EQ(r1.walk_end, r2.walk_end);
  EXPECT_EQ(r1.walk_distinct_nodes, r2.walk_distinct_nodes);
}

TEST(RandomWalkTest, DifferentSeedsDiverge) {
  Graph g = GenerateBarabasiAlbert(500, 4, 8);
  DirectGraphSource source(g);
  int same = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto a = ExecuteQuery(Walk(3, 20, seed), source);
    const auto b = ExecuteQuery(Walk(3, 20, seed + 100), source);
    same += a.walk_end == b.walk_end;
  }
  EXPECT_LT(same, 8);
}

TEST(RandomWalkTest, StaysWithinStepBudget) {
  Graph g = GenerateErdosRenyi(100, 500, 9);
  DirectGraphSource source(g);
  const auto result = ExecuteQuery(Walk(0, 5, 1), source);
  // At most 5 steps => at most 6 distinct nodes.
  EXPECT_LE(result.walk_distinct_nodes, 6u);
  EXPECT_NE(result.walk_end, kInvalidNode);
}

TEST(RandomWalkTest, DeadEndRestartsAtOrigin) {
  GraphBuilder b;
  b.AddEdge(0, 1);  // 1 has only the back-edge in bidirected view
  b.AddNode();      // isolated node 2
  Graph g = b.Build();
  DirectGraphSource source(g);
  const auto result = ExecuteQuery(Walk(2, 4, 3), source);
  EXPECT_EQ(result.walk_end, 2u);  // isolated: every step restarts
}

// ------------------------------------------------ trace accounting ------

TEST(TraceTest, DirectSourceCountsEveryFetchAsMiss) {
  Graph g = GenerateErdosRenyi(100, 400, 10);
  DirectGraphSource source(g);
  ExecuteQuery(Agg(0, 2), source);
  const FetchTrace& t = source.trace();
  EXPECT_EQ(t.cache_hits, 0u);
  EXPECT_GT(t.cache_misses, 0u);
  EXPECT_EQ(t.visited, t.cache_misses);
  EXPECT_GT(t.bytes_fetched, 0u);
  EXPECT_EQ(t.levels, t.level_stats.size());
}

TEST(TraceTest, CachedSourceHitsOnRepeat) {
  Graph g = GenerateErdosRenyi(100, 400, 11);
  StorageTier tier(2);
  tier.LoadGraph(g);
  NodeCache<CachedAdjacency> cache(1 << 20);
  CachedStorageSource source(&tier, &cache);
  ExecuteQuery(Agg(0, 2), source);
  const uint64_t first_misses = source.trace().cache_misses;
  EXPECT_GT(first_misses, 0u);
  EXPECT_EQ(source.trace().cache_hits, 0u);
  source.ResetTrace();
  ExecuteQuery(Agg(0, 2), source);
  EXPECT_EQ(source.trace().cache_misses, 0u);
  EXPECT_EQ(source.trace().cache_hits, first_misses);
}

TEST(TraceTest, BatchesGroupedByServerAndLevel) {
  Graph g = GenerateErdosRenyi(200, 1000, 12);
  StorageTier tier(3);
  tier.LoadGraph(g);
  CachedStorageSource source(&tier, nullptr);  // no-cache mode
  ExecuteQuery(Agg(0, 2), source);
  const FetchTrace& t = source.trace();
  // Each (level, server) pair appears at most once.
  std::unordered_set<uint64_t> seen;
  for (const auto& batch : t.batches) {
    const uint64_t key = (static_cast<uint64_t>(batch.level) << 32) | batch.server;
    EXPECT_TRUE(seen.insert(key).second);
    EXPECT_LT(batch.server, 3u);
    EXPECT_GT(batch.values, 0u);
  }
  // Per-level invariants: lookups = hits + misses; fetched <= misses.
  for (const auto& level : t.level_stats) {
    if (level.lookups > 0) {
      EXPECT_EQ(level.lookups, level.hits + level.misses);
    }
    EXPECT_LE(level.fetched, level.misses);
  }
}

TEST(TraceTest, ResultsIdenticalWithAndWithoutCache) {
  Graph g = GenerateBarabasiAlbert(300, 4, 13);
  StorageTier tier(2);
  tier.LoadGraph(g);
  NodeCache<CachedAdjacency> cache(1 << 22);
  CachedStorageSource cached(&tier, &cache);
  DirectGraphSource direct(g);
  Rng rng(14);
  for (int trial = 0; trial < 15; ++trial) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    const auto agg_a = ExecuteQuery(Agg(u, 2), cached);
    const auto agg_b = ExecuteQuery(Agg(u, 2), direct);
    EXPECT_EQ(agg_a.aggregate, agg_b.aggregate);
    const auto r_a = ExecuteQuery(Reach(u, v, 3), cached);
    const auto r_b = ExecuteQuery(Reach(u, v, 3), direct);
    EXPECT_EQ(r_a.reachable, r_b.reachable);
    const auto w_a = ExecuteQuery(Walk(u, 8, trial), cached);
    const auto w_b = ExecuteQuery(Walk(u, 8, trial), direct);
    EXPECT_EQ(w_a.walk_end, w_b.walk_end);
  }
}

// ------------------------------------------------ fetch-order pin ------
//
// The executors' visited tables are flat open-addressing tables. Their
// answers AND the exact sequence of node lists they hand to FetchBatch must
// match the original node-based std::unordered_set/unordered_map executors
// below, kept verbatim as the reference: the fetch sequence is what fixes
// cache state, hit counts and both engines' replayed costs.

QueryResult RefNeighborAggregation(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kNeighborAggregation;
  std::unordered_set<NodeId> seen{q.node};
  std::vector<NodeId> frontier{q.node};
  std::vector<AdjacencyPtr> entries = source.FetchBatch(frontier);
  std::vector<NodeId> next;
  for (int32_t depth = 0; depth < q.hops && !frontier.empty(); ++depth) {
    next.clear();
    for (const AdjacencyPtr& entry : entries) {
      if (entry == nullptr) {
        continue;
      }
      std::vector<NodeId> nbrs;
      for (const Edge& e : entry->out) {
        nbrs.push_back(e.dst);
      }
      for (const Edge& e : entry->in) {
        nbrs.push_back(e.dst);
      }
      for (NodeId v : nbrs) {
        if (seen.insert(v).second) {
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
    if (frontier.empty()) {
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

QueryResult RefRandomWalk(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kRandomWalk;
  Rng rng(q.seed ^ 0x5bd1e995u);
  std::unordered_set<NodeId> distinct{q.node};
  NodeId current = q.node;
  std::vector<NodeId> nbrs;
  for (int32_t step = 0; step < q.hops; ++step) {
    const AdjacencyPtr entry = source.FetchOne(current);
    if (entry == nullptr) {
      break;
    }
    if (step > 0 && rng.NextBool(q.restart_prob)) {
      current = q.node;
      distinct.insert(current);
      continue;
    }
    nbrs.clear();
    for (const Edge& e : entry->out) {
      nbrs.push_back(e.dst);
    }
    for (const Edge& e : entry->in) {
      nbrs.push_back(e.dst);
    }
    if (nbrs.empty()) {
      current = q.node;
      continue;
    }
    current = nbrs[rng.NextBounded(nbrs.size())];
    distinct.insert(current);
  }
  result.walk_end = current;
  result.walk_distinct_nodes = distinct.size();
  return result;
}

QueryResult RefReachability(const Query& q, NodeDataSource& source) {
  QueryResult result;
  result.type = QueryType::kReachability;
  if (q.node == q.target) {
    result.reachable = true;
    result.distance = 0;
    return result;
  }
  if (q.hops <= 0) {
    return result;
  }
  std::unordered_map<NodeId, int32_t> fwd_dist{{q.node, 0}};
  std::unordered_map<NodeId, int32_t> bwd_dist{{q.target, 0}};
  std::vector<NodeId> fwd_frontier{q.node};
  std::vector<NodeId> bwd_frontier{q.target};
  int32_t fwd_depth = 0;
  int32_t bwd_depth = 0;
  auto passes_filter = [&](const AdjacencyEntry& entry, NodeId v) {
    if (q.label_filter == kNoLabel || v == q.node || v == q.target) {
      return true;
    }
    return entry.node_label == q.label_filter;
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
        if (dist.count(e.dst) > 0) {
          continue;
        }
        dist[e.dst] = depth + 1;
        auto hit = other_dist.find(e.dst);
        if (hit != other_dist.end()) {
          const int32_t total = depth + 1 + hit->second;
          if (total <= q.hops) {
            result.reachable = true;
            result.distance = total;
            return result;
          }
        }
        next.push_back(e.dst);
      }
    }
    if (q.label_filter != kNoLabel && !next.empty()) {
      const auto next_entries = source.FetchBatch(next);
      std::vector<NodeId> kept;
      for (size_t i = 0; i < next.size(); ++i) {
        if (next_entries[i] != nullptr && passes_filter(*next_entries[i], next[i])) {
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

QueryResult RefExecute(const Query& q, NodeDataSource& source) {
  switch (q.type) {
    case QueryType::kNeighborAggregation:
      return RefNeighborAggregation(q, source);
    case QueryType::kRandomWalk:
      return RefRandomWalk(q, source);
    case QueryType::kReachability:
      return RefReachability(q, source);
  }
  return {};
}

// Direct graph source that logs every node list passed to FetchBatch.
class RecordingSource : public NodeDataSource {
 public:
  explicit RecordingSource(const Graph& g) : inner_(g) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    log_.emplace_back(nodes.begin(), nodes.end());
    return inner_.FetchBatch(nodes);
  }
  const FetchTrace& trace() const override { return inner_.trace(); }
  void ResetTrace() override { inner_.ResetTrace(); }

  std::vector<std::vector<NodeId>> TakeLog() { return std::exchange(log_, {}); }

 private:
  DirectGraphSource inner_;
  std::vector<std::vector<NodeId>> log_;
};

void ExpectSameAnswerAndFetches(const Graph& g, const Query& q) {
  RecordingSource flat(g);
  RecordingSource reference(g);
  const QueryResult got = ExecuteQuery(q, flat);
  const QueryResult want = RefExecute(q, reference);
  const std::string what = QueryTypeName(q.type) + " node=" + std::to_string(q.node) +
                           " target=" + std::to_string(q.target) +
                           " hops=" + std::to_string(q.hops) +
                           " label=" + std::to_string(q.label_filter);
  EXPECT_EQ(got.type, want.type) << what;
  EXPECT_EQ(got.aggregate, want.aggregate) << what;
  EXPECT_EQ(got.walk_end, want.walk_end) << what;
  EXPECT_EQ(got.walk_distinct_nodes, want.walk_distinct_nodes) << what;
  EXPECT_EQ(got.reachable, want.reachable) << what;
  EXPECT_EQ(got.distance, want.distance) << what;
  EXPECT_EQ(flat.TakeLog(), reference.TakeLog()) << what;
}

// Seeded queries of every type, with and without label filters.
std::vector<Query> PinQueries(const Graph& g, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> queries;
  for (int i = 0; i < count; ++i) {
    Query q;
    q.type = static_cast<QueryType>(i % 3);
    q.node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.target = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.hops = 1 + static_cast<int32_t>(rng.NextBounded(q.type == QueryType::kRandomWalk ? 12 : 4));
    q.label_filter = (i / 3) % 2 == 0 ? kNoLabel : static_cast<Label>(1 + rng.NextBounded(3));
    q.seed = rng.Next();
    queries.push_back(q);
  }
  return queries;
}

TEST(FetchOrderPinTest, FlatTablesMatchNodeBasedReferenceOnGeneratedGraph) {
  const Graph g = GenerateBarabasiAlbert(2000, 4, 21, LabelConfig{3, 0});
  for (const Query& q : PinQueries(g, 240, 22)) {
    ExpectSameAnswerAndFetches(g, q);
  }
}

// A 3000-spoke star drives the visited tables through many doublings:
// aggregation from the hub or a spoke sees every spoke, and reachability
// from the hub inserts spokes until it meets the target.
TEST(FetchOrderPinTest, FlatTablesMatchNodeBasedReferenceThroughTableGrowth) {
  const Graph g = GenerateStar(3000, LabelConfig{3, 0});
  std::vector<Query> queries = PinQueries(g, 48, 23);
  for (const Label label : {kNoLabel, Label{1}}) {
    queries.push_back(Agg(0, 1));
    queries.push_back(Agg(17, 2));
    queries.push_back(Reach(0, 2999, 2));
    queries.push_back(Reach(0, 3000, 3));
    queries.push_back(Reach(5, 0, 3));
    queries.push_back(Walk(0, 10, 24));
    for (size_t i = queries.size() - 6; i < queries.size(); ++i) {
      queries[i].label_filter = label;
    }
  }
  for (const Query& q : queries) {
    ExpectSameAnswerAndFetches(g, q);
  }
}

TEST(QueryTypeNameTest, AllNamed) {
  EXPECT_EQ(QueryTypeName(QueryType::kNeighborAggregation), "neighbor_aggregation");
  EXPECT_EQ(QueryTypeName(QueryType::kRandomWalk), "random_walk");
  EXPECT_EQ(QueryTypeName(QueryType::kReachability), "reachability");
}

}  // namespace
}  // namespace grouting
