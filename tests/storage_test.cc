// Tests for the storage server (a hash map from key to one immutable shared
// blob), the adjacency wire codec, and the partitioned storage tier.

#include <gtest/gtest.h>

#include <vector>

#include "src/graph/generators.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/storage/adjacency.h"
#include "src/storage/storage_tier.h"

namespace grouting {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> list) { return {list}; }

// One key through the server's only read path: a single-key multiget.
BlobPtr GetOne(StorageServer& server, NodeId key) {
  return server.MultiGet(std::span<const NodeId>(&key, 1))[0];
}

// ------------------------------------------------------- StorageServer --

TEST(StorageServerTest, LoadGetRoundTrip) {
  StorageServer server(0);
  server.Load(7, Bytes({1, 2, 3, 4}));
  const BlobPtr got = GetOne(server, 7);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, Bytes({1, 2, 3, 4}));
}

TEST(StorageServerTest, GetMissing) {
  StorageServer server(0);
  EXPECT_EQ(GetOne(server, 42), nullptr);
  EXPECT_EQ(server.stats().get_requests, 1u);
  EXPECT_EQ(server.stats().misses, 1u);
  EXPECT_EQ(server.stats().values_served, 0u);
  EXPECT_EQ(server.PeekBlob(42), nullptr);
}

TEST(StorageServerTest, OverwriteReplacesValueAndKeepsHandedOutBlob) {
  StorageServer server(0);
  server.Load(1, Bytes({1, 1, 1, 1}));
  const BlobPtr before = GetOne(server, 1);
  server.Load(1, Bytes({2, 2}));
  EXPECT_EQ(*GetOne(server, 1), Bytes({2, 2}));
  // Blobs are immutable: a reader holding the old value still sees it.
  EXPECT_EQ(*before, Bytes({1, 1, 1, 1}));
}

TEST(StorageServerTest, DeleteRemoves) {
  StorageServer server(0);
  server.Load(1, Bytes({9}));
  server.Delete(1);
  EXPECT_EQ(GetOne(server, 1), nullptr);
  server.Delete(1);  // second delete is a no-op
  EXPECT_EQ(server.PeekBlob(1), nullptr);
}

TEST(StorageServerTest, DeletesLeaveSurvivorsIntact) {
  StorageServer server(0);
  for (NodeId k = 0; k < 50; ++k) {
    server.Load(k, Bytes({static_cast<uint8_t>(k), 0, 0, 0, 0, 0, 0, 0}));
  }
  for (NodeId k = 0; k < 50; k += 2) {
    server.Delete(k);
  }
  for (NodeId k = 0; k < 50; ++k) {
    const BlobPtr got = GetOne(server, k);
    if (k % 2 == 0) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ((*got)[0], static_cast<uint8_t>(k));
    }
  }
}

TEST(StorageServerTest, ManyValues) {
  StorageServer server(0);
  const std::vector<uint8_t> value(100, 0xAB);
  for (NodeId k = 0; k < 64; ++k) {
    server.Load(k, value);
  }
  for (NodeId k = 0; k < 64; ++k) {
    ASSERT_NE(GetOne(server, k), nullptr);
  }
}

TEST(StorageServerTest, EmptyValueAllowed) {
  StorageServer server(0);
  server.Load(5, std::vector<uint8_t>{});
  const BlobPtr got = GetOne(server, 5);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->size(), 0u);
}

TEST(StorageServerTest, MultiGetCountsStatsAndSharesBlobs) {
  StorageServer server(0);
  const BlobPtr blob = std::make_shared<const std::vector<uint8_t>>(Bytes({4, 5, 6}));
  server.Load(3, blob);
  server.Load(4, Bytes({7}));
  const std::vector<NodeId> keys = {3, 99, 4, 3};
  const std::vector<BlobPtr> got = server.MultiGet(keys);
  ASSERT_EQ(got.size(), keys.size());
  EXPECT_EQ(got[0], blob);  // the stored blob itself, not a copy
  EXPECT_EQ(got[1], nullptr);
  EXPECT_EQ(*got[2], Bytes({7}));
  EXPECT_EQ(got[3], blob);
  EXPECT_EQ(server.stats().get_requests, 4u);
  EXPECT_EQ(server.stats().misses, 1u);
  EXPECT_EQ(server.stats().values_served, 3u);
  EXPECT_EQ(server.stats().bytes_served, 3u + 1u + 3u);
  // PeekBlob is not workload traffic.
  EXPECT_EQ(server.PeekBlob(3), blob);
  EXPECT_EQ(server.stats().get_requests, 4u);
}

// ----------------------------------------------------------- Adjacency --

TEST(AdjacencyCodecTest, RoundTripFromGraph) {
  GraphBuilder b;
  b.AddNode(0, 42);
  b.AddEdge(0, 1, 7);
  b.AddEdge(2, 0, 9);
  Graph g = b.Build();
  const auto blob = EncodeAdjacency(g, 0);
  EXPECT_EQ(blob.size(), g.AdjacencyBytes(0));
  auto entry = DecodeAdjacency(blob);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->node, 0u);
  EXPECT_EQ(entry->node_label, 42);
  ASSERT_EQ(entry->out.size(), 1u);
  EXPECT_EQ(entry->out[0].dst, 1u);
  EXPECT_EQ(entry->out[0].label, 7);
  ASSERT_EQ(entry->in.size(), 1u);
  EXPECT_EQ(entry->in[0].dst, 2u);
  EXPECT_EQ(entry->in[0].label, 9);
  EXPECT_EQ(entry->SerializedBytes(), blob.size());
}

TEST(AdjacencyCodecTest, RoundTripFromEntry) {
  AdjacencyEntry entry;
  entry.node = 5;
  entry.node_label = 3;
  entry.out = {{10, 1}, {20, 2}};
  entry.in = {{30, 3}};
  const auto blob = EncodeAdjacency(entry);
  auto decoded = DecodeAdjacency(blob);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->out.size(), 2u);
  EXPECT_EQ(decoded->in.size(), 1u);
  EXPECT_EQ(decoded->out[1].dst, 20u);
}

TEST(AdjacencyCodecTest, RejectsTruncated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g = b.Build();
  auto blob = EncodeAdjacency(g, 0);
  blob.pop_back();
  EXPECT_EQ(DecodeAdjacency(blob), nullptr);
  EXPECT_EQ(DecodeAdjacency(std::span<const uint8_t>{}), nullptr);
}

TEST(AdjacencyCodecTest, IsolatedNode) {
  GraphBuilder b;
  b.AddNode();
  Graph g = b.Build();
  const auto blob = EncodeAdjacency(g, 0);
  EXPECT_EQ(blob.size(), 16u);
  auto entry = DecodeAdjacency(blob);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->out.empty());
  EXPECT_TRUE(entry->in.empty());
}

// ---------------------------------------------------------- StorageTier --

// Keys held by one server, counted through the stats-free PeekBlob.
size_t KeysHeld(StorageServer& server, NodeId num_nodes) {
  size_t held = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    held += server.PeekBlob(u) != nullptr ? 1 : 0;
  }
  return held;
}

TEST(StorageTierTest, LoadAndFetchWholeGraph) {
  Graph g = GenerateErdosRenyi(200, 800, 1);
  StorageTier tier(4);
  tier.LoadGraph(g);
  size_t held = 0;
  for (size_t s = 0; s < tier.num_servers(); ++s) {
    held += KeysHeld(tier.server(s), g.num_nodes());
  }
  EXPECT_EQ(held, g.num_nodes());
  CachedStorageSource source(&tier, /*cache=*/nullptr);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto entry = source.FetchOne(u);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->node, u);
    EXPECT_EQ(entry->out.size(), g.OutDegree(u));
    EXPECT_EQ(entry->in.size(), g.InDegree(u));
  }
}

// A v1 blob larger than 1 MiB: the star's hub holds 200,000 edges
// (1,200,016 bytes). It must load and read back like any other node.
TEST(StorageTierTest, HubBlobOverOneMebibyteLoadsAndReadsBack) {
  const Graph g = GenerateStar(200'000);
  StorageTier tier(4);
  tier.LoadGraph(g);
  const BlobPtr hub_blob = tier.PeekCurrent(0);
  ASSERT_NE(hub_blob, nullptr);
  EXPECT_EQ(hub_blob->size(), 1'200'016u);
  CachedStorageSource source(&tier, /*cache=*/nullptr);
  DirectGraphSource direct(g);
  const AdjacencyPtr got = source.FetchOne(0);
  const AdjacencyPtr want = direct.FetchOne(0);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->node, want->node);
  EXPECT_EQ(got->node_label, want->node_label);
  EXPECT_EQ(got->out, want->out);
  EXPECT_EQ(got->in, want->in);
}

TEST(StorageTierTest, HashPlacementIsStable) {
  Graph g = GenerateErdosRenyi(100, 300, 2);
  StorageTier tier(3);
  tier.LoadGraph(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const uint32_t s = tier.ServerOf(u);
    EXPECT_LT(s, 3u);
    EXPECT_EQ(tier.ServerOf(u), s);  // stable
    EXPECT_NE(tier.server(s).PeekBlob(u), nullptr);
  }
}

TEST(StorageTierTest, ExplicitPlacementHonored) {
  Graph g = GenerateErdosRenyi(50, 150, 3);
  StorageTier tier(2);
  PartitionAssignment placement(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    placement[u] = u % 2;
  }
  tier.LoadGraph(g, placement);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(tier.ServerOf(u), u % 2);
  }
}

TEST(StorageTierTest, MissingKeyReturnsNull) {
  Graph g = GenerateErdosRenyi(10, 20, 4);
  StorageTier tier(2);
  tier.LoadGraph(g);
  EXPECT_EQ(tier.PeekCurrent(9999), nullptr);
  auto handle = tier.StartMultiGet(tier.ServerOf(9999), {9999});
  handle->Execute();
  ASSERT_EQ(handle->Wait().size(), 1u);
  EXPECT_EQ(handle->Wait()[0], nullptr);
  EXPECT_EQ(handle->payload_bytes(), 0u);
}

TEST(StorageTierTest, StatsTrackServing) {
  Graph g = GenerateErdosRenyi(40, 100, 5);
  StorageTier tier(2);
  tier.LoadGraph(g);
  CachedStorageSource source(&tier, /*cache=*/nullptr);
  for (NodeId u = 0; u < 40; ++u) {
    source.FetchOne(u);
  }
  uint64_t served = 0;
  uint64_t bytes = 0;
  uint64_t held_bytes = 0;
  for (size_t s = 0; s < 2; ++s) {
    served += tier.server(s).stats().values_served;
    bytes += tier.server(s).stats().bytes_served;
    EXPECT_EQ(tier.server(s).stats().misses, 0u);
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    held_bytes += tier.PeekCurrent(u)->size();
  }
  EXPECT_EQ(served, 40u);
  EXPECT_EQ(bytes, g.TotalAdjacencyBytes());
  EXPECT_EQ(held_bytes, g.TotalAdjacencyBytes());
}

TEST(StorageTierTest, DistributionAcrossServers) {
  Graph g = GenerateErdosRenyi(1000, 2000, 6);
  StorageTier tier(4);
  tier.LoadGraph(g);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(KeysHeld(tier.server(s), g.num_nodes()), 150u);
  }
}

}  // namespace
}  // namespace grouting
