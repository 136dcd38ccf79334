// Unit tests for src/graph: builder/CSR invariants, both edge directions,
// labels, induced subgraphs, and size accounting.

#include <gtest/gtest.h>

#include <set>

#include "src/graph/graph.h"

namespace grouting {
namespace {

Graph Triangle() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return b.Build();
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.TotalAdjacencyBytes(), 0u);
}

TEST(GraphBuilderTest, SingleNodeNoEdges) {
  GraphBuilder b;
  b.AddNode();
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.OutDegree(0), 0u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_TRUE(g.OutNeighbors(0).empty());
}

TEST(GraphBuilderTest, AddEdgeGrowsNodeSet) {
  GraphBuilder b;
  b.AddEdge(3, 7);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, TriangleStructure) {
  Graph g = Triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(g.OutDegree(u), 1u);
    EXPECT_EQ(g.InDegree(u), 1u);
    EXPECT_EQ(g.Degree(u), 2u);
  }
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(GraphBuilderTest, InEdgesMirrorOutEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1, 5);
  b.AddEdge(0, 2, 6);
  b.AddEdge(3, 1, 7);
  Graph g = b.Build();
  // Node 1 has in-edges from 0 (label 5) and 3 (label 7).
  auto in = g.InNeighbors(1);
  ASSERT_EQ(in.size(), 2u);
  std::set<NodeId> sources{in[0].dst, in[1].dst};
  EXPECT_TRUE(sources.count(0));
  EXPECT_TRUE(sources.count(3));
  // The in-edge carries the original edge's label.
  for (const Edge& e : in) {
    if (e.dst == 0) {
      EXPECT_EQ(e.label, 5);
    } else {
      EXPECT_EQ(e.label, 7);
    }
  }
}

TEST(GraphBuilderTest, ParallelEdgesDedupedByDefault) {
  GraphBuilder b;
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 1, 2);
  b.AddEdge(0, 1, 3);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0].label, 1);  // first label kept
}

TEST(GraphBuilderTest, ParallelEdgesKeptWhenRequested) {
  GraphBuilder b;
  b.keep_parallel_edges(true);
  b.AddEdge(0, 1, 1);
  b.AddEdge(0, 1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphBuilderTest, SelfLoopsAllowed) {
  GraphBuilder b;
  b.AddEdge(0, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_EQ(g.InDegree(0), 1u);
}

TEST(GraphBuilderTest, NeighborsSortedByDst) {
  GraphBuilder b;
  b.AddEdge(0, 9);
  b.AddEdge(0, 3);
  b.AddEdge(0, 7);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  auto nbrs = g.OutNeighbors(0);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1].dst, nbrs[i].dst);
  }
}

TEST(GraphBuilderTest, NodeLabels) {
  GraphBuilder b;
  b.AddNode(0, 11);
  b.AddNode(1, 22);
  b.AddEdge(0, 1);
  Graph g = b.Build();
  EXPECT_EQ(g.node_label(0), 11);
  EXPECT_EQ(g.node_label(1), 22);
}

TEST(GraphBuilderTest, SetNodeLabelAfterEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.SetNodeLabel(1, 99);
  Graph g = b.Build();
  EXPECT_EQ(g.node_label(1), 99);
  EXPECT_EQ(g.node_label(0), kNoLabel);
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g1 = b.Build();
  EXPECT_EQ(g1.num_edges(), 1u);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.num_edges(), 2u);
}

TEST(GraphTest, AdjacencyBytesFormula) {
  Graph g = Triangle();
  // Each node: 1 out + 1 in = 16 + 6*2 = 28 bytes.
  EXPECT_EQ(g.AdjacencyBytes(0), 28u);
  EXPECT_EQ(g.TotalAdjacencyBytes(), 3u * 28u);
}

TEST(GraphTest, AdjacencyListFileBytesPositive) {
  Graph g = Triangle();
  EXPECT_GT(g.AdjacencyListFileBytes(), 0u);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace grouting
