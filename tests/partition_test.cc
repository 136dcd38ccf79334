// Tests for the partitioners: coverage/balance invariants for all of them,
// cut-quality ordering (multilevel beats hash on community graphs), and
// vertex-cut replication properties.

#include <gtest/gtest.h>

#include <set>

#include "src/graph/generators.h"
#include "src/partition/metrics.h"
#include "src/partition/multilevel.h"
#include "src/partition/partitioner.h"
#include "src/partition/vertex_cut.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

void ExpectValidAssignment(const PartitionAssignment& a, size_t n, uint32_t k) {
  ASSERT_EQ(a.size(), n);
  for (PartitionId p : a) {
    EXPECT_LT(p, k);
  }
}

TEST(HashPartitionerTest, CoversAllPartitions) {
  Graph g = GenerateErdosRenyi(1000, 3000, 1);
  HashPartitioner part;
  auto a = part.Partition(g, 4);
  ExpectValidAssignment(a, 1000, 4);
  auto sizes = PartitionSizes(a, 4);
  for (size_t s : sizes) {
    EXPECT_GT(s, 150u);  // roughly balanced
  }
}

TEST(HashPartitionerTest, PlaceMatchesPartition) {
  Graph g = GenerateErdosRenyi(100, 300, 2);
  HashPartitioner part;
  auto a = part.Partition(g, 3);
  for (NodeId u = 0; u < 100; ++u) {
    EXPECT_EQ(a[u], part.Place(u, 3));
  }
}

TEST(HashPartitionerTest, DeterministicAcrossInstances) {
  HashPartitioner p1;
  HashPartitioner p2;
  for (NodeId u = 0; u < 200; ++u) {
    EXPECT_EQ(p1.Place(u, 7), p2.Place(u, 7));
  }
}

TEST(RangePartitionerTest, ContiguousAndBalanced) {
  Graph g = GenerateErdosRenyi(103, 300, 3);  // deliberately not divisible
  RangePartitioner part;
  auto a = part.Partition(g, 4);
  ExpectValidAssignment(a, 103, 4);
  // Non-decreasing partition ids over node ids.
  for (NodeId u = 1; u < 103; ++u) {
    EXPECT_GE(a[u], a[u - 1]);
  }
  auto sizes = PartitionSizes(a, 4);
  EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()) -
                *std::min_element(sizes.begin(), sizes.end()),
            1u);
}

TEST(MultilevelTest, ValidAssignment) {
  Graph g = GenerateCommunityGraph(16, 40, 5, 1, 6);
  MultilevelPartitioner part;
  auto a = part.Partition(g, 4);
  ExpectValidAssignment(a, g.num_nodes(), 4);
}

TEST(MultilevelTest, RespectsBalanceCap) {
  Graph g = GenerateCommunityGraph(16, 40, 5, 1, 7);
  MultilevelConfig cfg;
  cfg.imbalance = 0.05;
  MultilevelPartitioner part(cfg);
  auto m = EvaluatePartition(g, part.Partition(g, 4), 4);
  EXPECT_LT(m.balance, 1.12);  // cap + rounding slop
}

TEST(MultilevelTest, MuchBetterCutThanHashOnCommunities) {
  Graph g = GenerateCommunityGraph(32, 50, 6, 1, 8);
  auto hash_m = EvaluatePartition(g, HashPartitioner().Partition(g, 8), 8);
  auto ml_m = EvaluatePartition(g, MultilevelPartitioner().Partition(g, 8), 8);
  // The whole point of METIS-like partitioning: a fraction of hash's cut.
  EXPECT_LT(ml_m.cut_fraction, hash_m.cut_fraction * 0.5);
}

TEST(MultilevelTest, SinglePartitionTrivial) {
  Graph g = GenerateErdosRenyi(100, 300, 9);
  auto a = MultilevelPartitioner().Partition(g, 1);
  for (PartitionId p : a) {
    EXPECT_EQ(p, 0u);
  }
}

TEST(MultilevelTest, HandlesStarGraph) {
  // Matching stalls on stars; the partitioner must still terminate and
  // produce a valid (if imperfect) assignment.
  Graph g = GenerateStar(500);
  auto a = MultilevelPartitioner().Partition(g, 4);
  ExpectValidAssignment(a, 501, 4);
}

TEST(MultilevelTest, HandlesEmptyAndTinyGraphs) {
  Graph empty;
  EXPECT_TRUE(MultilevelPartitioner().Partition(empty, 4).empty());
  GraphBuilder b;
  b.AddNode();
  b.AddNode();
  Graph two = b.Build();
  auto a = MultilevelPartitioner().Partition(two, 4);
  ExpectValidAssignment(a, 2, 4);
}

TEST(MultilevelTest, DeterministicInSeed) {
  Graph g = GenerateCommunityGraph(10, 30, 4, 1, 10);
  MultilevelConfig cfg;
  cfg.seed = 77;
  auto a = MultilevelPartitioner(cfg).Partition(g, 4);
  auto b = MultilevelPartitioner(cfg).Partition(g, 4);
  EXPECT_EQ(a, b);
}

// Parameterized balance/validity sweep over k for all node partitioners.
class PartitionerSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PartitionerSweepTest, AllPartitionersValidForK) {
  const uint32_t k = GetParam();
  Graph g = GenerateCommunityGraph(12, 40, 4, 1, 11);
  HashPartitioner hash;
  RangePartitioner range;
  MultilevelPartitioner ml;
  for (Partitioner* part : std::initializer_list<Partitioner*>{&hash, &range, &ml}) {
    auto a = part->Partition(g, k);
    ExpectValidAssignment(a, g.num_nodes(), k);
    auto m = EvaluatePartition(g, a, k);
    EXPECT_EQ(m.num_partitions, k);
    EXPECT_LE(m.cut_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, PartitionerSweepTest, ::testing::Values(1, 2, 3, 7, 12));

// ----------------------------------------------------------- VertexCut --

TEST(VertexCutTest, EveryEdgeAssigned) {
  Graph g = GenerateBarabasiAlbert(500, 4, 12);
  auto cut = GreedyVertexCut(g, 4, 1);
  ASSERT_EQ(cut.edge_partition.size(), g.num_edges());
  for (uint32_t p : cut.edge_partition) {
    EXPECT_LT(p, 4u);
  }
  uint64_t total = 0;
  for (uint64_t c : cut.edges_per_partition) {
    total += c;
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(VertexCutTest, ReplicasConsistentWithEdges) {
  Graph g = GenerateErdosRenyi(200, 800, 13);
  auto cut = GreedyVertexCut(g, 3, 2);
  // Walk edges in CSR order; both endpoints must list the edge's partition.
  size_t idx = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.OutNeighbors(u)) {
      const uint32_t p = cut.edge_partition[idx++];
      EXPECT_TRUE(std::binary_search(cut.node_replicas[u].begin(),
                                     cut.node_replicas[u].end(), p));
      EXPECT_TRUE(std::binary_search(cut.node_replicas[e.dst].begin(),
                                     cut.node_replicas[e.dst].end(), p));
    }
  }
}

TEST(VertexCutTest, EveryNodeHasMaster) {
  Graph g = GenerateStar(100);
  auto cut = GreedyVertexCut(g, 4, 3);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_FALSE(cut.node_replicas[u].empty());
    EXPECT_EQ(cut.master[u], cut.node_replicas[u][0]);
    EXPECT_LT(cut.master[u], 4u);
  }
}

TEST(VertexCutTest, ReplicationFactorBounds) {
  Graph g = GenerateBarabasiAlbert(1000, 5, 14);
  auto cut = GreedyVertexCut(g, 8, 4);
  const double rf = cut.ReplicationFactor();
  EXPECT_GE(rf, 1.0);
  EXPECT_LE(rf, 8.0);
}

TEST(VertexCutTest, PureStarIsGreedyDegenerateButValid) {
  // A PURE star is the greedy heuristic's documented degenerate case: every
  // spoke has exactly one edge, so the "one endpoint assigned" rule keeps
  // all edges with the hub's machine. The result must still be valid.
  Graph g = GenerateStar(2000);
  auto cut = GreedyVertexCut(g, 4, 5);
  EXPECT_GE(cut.node_replicas[0].size(), 1u);
  uint64_t total = 0;
  for (uint64_t c : cut.edges_per_partition) {
    total += c;
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(VertexCutTest, HubsSplitWhenSpokesHaveOtherEdges) {
  // On natural graphs (spokes with additional edges pulling them to other
  // machines), high-degree hubs DO get replicated — PowerGraph's point.
  constexpr NodeId kHub = 400;  // highest id: spokes place before hub edges
  Graph hub_graph = [] {
    GraphBuilder b;
    // Ring among 400 spokes (gives each spoke independent placement)...
    for (NodeId u = 0; u < 400; ++u) {
      b.AddEdge(u, (u + 1) % 400);
    }
    // ...plus a hub connected to every spoke.
    for (NodeId u = 0; u < 400; ++u) {
      b.AddEdge(kHub, u);
    }
    return b.Build();
  }();
  auto cut = GreedyVertexCut(hub_graph, 4, 6);
  EXPECT_GE(cut.node_replicas[kHub].size(), 2u);
}

TEST(VertexCutTest, BetterReplicationThanRandomOnPowerLaw) {
  Graph g = GenerateBarabasiAlbert(2000, 6, 15);
  auto greedy = GreedyVertexCut(g, 8, 6);
  // Random edge placement replication factor ~ E[distinct partitions per
  // node's edges]; greedy should be significantly lower.
  Rng rng(7);
  std::vector<std::set<uint32_t>> reps(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Edge& e : g.OutNeighbors(u)) {
      const uint32_t p = static_cast<uint32_t>(rng.NextBounded(8));
      reps[u].insert(p);
      reps[e.dst].insert(p);
    }
  }
  double random_rf = 0;
  for (const auto& r : reps) {
    random_rf += static_cast<double>(std::max<size_t>(r.size(), 1));
  }
  random_rf /= static_cast<double>(g.num_nodes());
  EXPECT_LT(greedy.ReplicationFactor(), random_rf);
}

}  // namespace
}  // namespace grouting
