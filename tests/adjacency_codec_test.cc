// Tests for the v2 (delta + LEB128 varint) adjacency wire format: round-trip
// identity against the v1 decoder, degenerate node shapes, corruption
// handling (nullptr, never a crash), and the compressed processor cache
// built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/graph/generators.h"
#include "src/proc/processor.h"
#include "src/storage/adjacency.h"
#include "src/storage/storage_tier.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"

namespace grouting {
namespace {

void ExpectEntriesEqual(const AdjacencyEntry& a, const AdjacencyEntry& b) {
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.node_label, b.node_label);
  ASSERT_EQ(a.out.size(), b.out.size());
  ASSERT_EQ(a.in.size(), b.in.size());
  for (size_t i = 0; i < a.out.size(); ++i) {
    EXPECT_EQ(a.out[i], b.out[i]) << "out edge " << i;
  }
  for (size_t i = 0; i < a.in.size(); ++i) {
    EXPECT_EQ(a.in[i], b.in[i]) << "in edge " << i;
  }
}

// Decoding the v2 blob must yield exactly what decoding the v1 blob yields,
// for every node of the graph. Reports total v1 / v2 bytes for ratio checks.
void ExpectGraphParity(const Graph& g, uint64_t* v1_total = nullptr,
                       uint64_t* v2_total = nullptr) {
  uint64_t v1_bytes = 0;
  uint64_t v2_bytes = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto raw = EncodeAdjacency(g, u, AdjacencyEncoding::kRaw);
    const auto dv = EncodeAdjacency(g, u, AdjacencyEncoding::kDeltaVarint);
    v1_bytes += raw.size();
    v2_bytes += dv.size();
    const AdjacencyPtr from_raw = DecodeAdjacency(raw);
    const AdjacencyPtr from_dv = DecodeAdjacency(dv);
    ASSERT_NE(from_raw, nullptr);
    ASSERT_NE(from_dv, nullptr);
    ExpectEntriesEqual(*from_raw, *from_dv);
    EXPECT_EQ(from_raw->SerializedBytes(), raw.size());
    EXPECT_EQ(from_dv->SerializedBytes(), raw.size());
  }
  if (v1_total != nullptr) {
    *v1_total = v1_bytes;
  }
  if (v2_total != nullptr) {
    *v2_total = v2_bytes;
  }
}

TEST(AdjacencyV2Test, RoundTripGeneratedGraphs) {
  uint64_t v1a = 0, v2a = 0, v1b = 0, v2b = 0;
  ExpectGraphParity(GenerateErdosRenyi(300, 1500, 7), &v1a, &v2a);
  ExpectGraphParity(GenerateBarabasiAlbert(300, 5, 8), &v1b, &v2b);
  // Sorted ids + small deltas: the compressed form must actually be smaller.
  EXPECT_LT(v2a, v1a);
  EXPECT_LT(v2b, v1b);
}

TEST(AdjacencyV2Test, RoundTripDatasetGraph) {
  const Graph g = MakeDataset(DatasetId::kWebGraphLike, 0.05);
  uint64_t v1 = 0, v2 = 0;
  ExpectGraphParity(g, &v1, &v2);
  // The acceptance premise: >= 2x fewer bytes per entry on a real-shaped
  // graph (power-law degrees, sorted CSR neighbours).
  EXPECT_LT(2 * v2, v1 + g.num_nodes() * 2);  // slack for tiny-degree nodes
}

TEST(AdjacencyV2Test, EmptySingletonAndHighDegreeNodes) {
  GraphBuilder b;
  b.AddNode(0, 3);         // isolated
  b.AddEdge(1, 2, 9);      // singleton out / in pair
  for (NodeId v = 3; v < 900; ++v) {
    b.AddEdge(2, v, static_cast<Label>(v % 4));  // high-degree hub
  }
  const Graph g = b.Build();
  ExpectGraphParity(g);
  // Isolated node: header-only blob, well under the 16-byte v1 floor.
  const auto dv = EncodeAdjacency(g, 0, AdjacencyEncoding::kDeltaVarint);
  EXPECT_LT(dv.size(), 16u);
  const AdjacencyPtr decoded = DecodeAdjacency(dv);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->out.empty());
  EXPECT_TRUE(decoded->in.empty());
}

TEST(AdjacencyV2Test, UnsortedDynamicEntryRoundTrips) {
  // Entries built directly (dynamic updates) need not have sorted dsts;
  // zigzag deltas must carry negative gaps faithfully.
  AdjacencyEntry entry;
  entry.node = 12345;
  entry.node_label = 7;
  entry.out = {{900, 1}, {3, 2}, {kInvalidNode - 1, 3}, {10, 2}};
  entry.in = {{5, 0}, {5, 0}, {2, 65535}};
  const auto dv = EncodeAdjacency(entry, AdjacencyEncoding::kDeltaVarint);
  const AdjacencyPtr decoded = DecodeAdjacency(dv);
  ASSERT_NE(decoded, nullptr);
  ExpectEntriesEqual(entry, *decoded);
}

TEST(AdjacencyV2Test, TruncatedInputReturnsNullNoCrash) {
  const Graph g = GenerateErdosRenyi(50, 300, 9);
  for (NodeId u = 0; u < 8; ++u) {
    const auto dv = EncodeAdjacency(g, u, AdjacencyEncoding::kDeltaVarint);
    for (size_t len = 0; len < dv.size(); ++len) {
      const std::span<const uint8_t> prefix(dv.data(), len);
      EXPECT_EQ(DecodeAdjacency(prefix), nullptr) << "len=" << len;
    }
  }
}

TEST(AdjacencyV2Test, CorruptInputReturnsNullNoCrash) {
  const Graph g = GenerateBarabasiAlbert(60, 4, 10);
  Rng rng(11);
  for (NodeId u = 0; u < 8; ++u) {
    const auto dv = EncodeAdjacency(g, u, AdjacencyEncoding::kDeltaVarint);
    // Every single-byte corruption either still parses to SOME entry or
    // returns nullptr — it must never crash or over-read (ASan enforces).
    for (size_t pos = 0; pos < dv.size(); ++pos) {
      auto bad = dv;
      bad[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      (void)DecodeAdjacency(bad);
    }
    // Random garbage of assorted sizes.
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint8_t> junk(rng.NextBounded(64));
      for (auto& byte : junk) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      (void)DecodeAdjacency(junk);
    }
  }
  // Structured corruption: v2 header with absurd counts must be rejected
  // before any allocation.
  const std::vector<uint8_t> absurd = {0xC2, 0x02, 0x01, 0x00,
                                       0xff, 0xff, 0xff, 0xff, 0x0f,  // out count
                                       0x00};
  EXPECT_EQ(DecodeAdjacency(absurd), nullptr);
}

TEST(AdjacencyV2Test, V1BlobsStillDecode) {
  // Old stores hold v1 blobs; the auto-detecting decoder must keep reading
  // them regardless of the configured encoding.
  const Graph g = GenerateErdosRenyi(80, 400, 12);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto raw = EncodeAdjacency(g, u);  // default = kRaw = v1
    EXPECT_EQ(raw.size(), g.AdjacencyBytes(u));
    const AdjacencyPtr decoded = DecodeAdjacency(raw);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->node, u);
    EXPECT_EQ(decoded->SerializedBytes(), raw.size());
  }
}

// ---- compressed processor cache over a delta_varint tier ---------------

TEST(CompressedCacheTest, CompressedModeHoldsMoreEntriesAndSameAnswers) {
  const Graph g = GenerateBarabasiAlbert(600, 6, 14);

  auto run = [&](AdjacencyEncoding enc, bool compressed, uint64_t budget,
                 std::vector<AdjacencyPtr>* fetched) {
    StorageTier tier(2);
    tier.set_encoding(enc);
    tier.LoadGraph(g);
    NodeCache<CachedAdjacency> cache(budget);
    CachedStorageSource source(&tier, &cache, 1, compressed);
    // Touch every node once (fills the cache), then re-touch to measure hits.
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      fetched->push_back(source.FetchOne(u));
    }
    return cache.entry_count();
  };

  const uint64_t budget = g.TotalAdjacencyBytes() / 8;
  std::vector<AdjacencyPtr> raw_entries;
  std::vector<AdjacencyPtr> cc_entries;
  const size_t raw_count =
      run(AdjacencyEncoding::kRaw, false, budget, &raw_entries);
  const size_t cc_count =
      run(AdjacencyEncoding::kDeltaVarint, true, budget, &cc_entries);
  // Same byte budget, >= 2x the resident vertices.
  EXPECT_GE(cc_count, 2 * raw_count);
  // And identical decoded adjacency data either way.
  ASSERT_EQ(raw_entries.size(), cc_entries.size());
  for (size_t i = 0; i < raw_entries.size(); ++i) {
    ASSERT_NE(raw_entries[i], nullptr);
    ASSERT_NE(cc_entries[i], nullptr);
    ExpectEntriesEqual(*raw_entries[i], *cc_entries[i]);
  }
}

TEST(CompressedCacheTest, HitDecodesToSameEntryAndCountsDecompressTime) {
  const Graph g = GenerateErdosRenyi(100, 600, 15);
  StorageTier tier(1);
  tier.set_encoding(AdjacencyEncoding::kDeltaVarint);
  tier.LoadGraph(g);
  NodeCache<CachedAdjacency> cache(1 << 22);
  CachedStorageSource source(&tier, &cache, 1, /*cache_compressed=*/true);
  const AdjacencyPtr miss = source.FetchOne(5);
  ASSERT_NE(miss, nullptr);
  const AdjacencyPtr hit = source.FetchOne(5);
  ASSERT_NE(hit, nullptr);
  ExpectEntriesEqual(*miss, *hit);
  EXPECT_EQ(source.trace().cache_hits, 1u);
  EXPECT_GT(source.trace().decompress_us, 0.0);
  // The cache charged the compressed size, not the logical one.
  EXPECT_LT(cache.size_bytes(), miss->SerializedBytes());
  // And it holds the very blob the storage server shipped, not a copy.
  const auto slot = cache.Get(5);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->encoded, tier.PeekCurrent(5));
}

}  // namespace
}  // namespace grouting
