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
#include "src/query/query.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/workload.h"

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

// The one decoder through both entry points: DecodeAdjacency (fresh entry)
// and DecodeAdjacencyInto (in place). They must agree on accept/reject and,
// on accept, on the entry. The in-place side decodes into one entry reused
// across every call of the test binary, after hubs, leaves and rejected
// blobs alike — the way a processor's decode pool reuses its slots.
AdjacencyPtr DecodeBoth(std::span<const uint8_t> bytes) {
  static AdjacencyEntry reused;
  const AdjacencyPtr fresh = DecodeAdjacency(bytes);
  const bool accepted = DecodeAdjacencyInto(bytes, &reused);
  EXPECT_EQ(accepted, fresh != nullptr);
  if (accepted && fresh != nullptr) {
    ExpectEntriesEqual(*fresh, reused);
  }
  return fresh;
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
    const AdjacencyPtr from_raw = DecodeBoth(raw);
    const AdjacencyPtr from_dv = DecodeBoth(dv);
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
  const AdjacencyPtr decoded = DecodeBoth(dv);
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
  const AdjacencyPtr decoded = DecodeBoth(dv);
  ASSERT_NE(decoded, nullptr);
  ExpectEntriesEqual(entry, *decoded);
}

TEST(AdjacencyV2Test, TruncatedInputReturnsNullNoCrash) {
  const Graph g = GenerateErdosRenyi(50, 300, 9);
  for (NodeId u = 0; u < 8; ++u) {
    const auto dv = EncodeAdjacency(g, u, AdjacencyEncoding::kDeltaVarint);
    for (size_t len = 0; len < dv.size(); ++len) {
      const std::span<const uint8_t> prefix(dv.data(), len);
      EXPECT_EQ(DecodeBoth(prefix), nullptr) << "len=" << len;
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
      (void)DecodeBoth(bad);
    }
    // Random garbage of assorted sizes.
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint8_t> junk(rng.NextBounded(64));
      for (auto& byte : junk) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      (void)DecodeBoth(junk);
    }
  }
  // Structured corruption: v2 header with absurd counts must be rejected
  // before any allocation.
  const std::vector<uint8_t> absurd = {0xC2, 0x02, 0x01, 0x00,
                                       0xff, 0xff, 0xff, 0xff, 0x0f,  // out count
                                       0x00};
  EXPECT_EQ(DecodeBoth(absurd), nullptr);
}

TEST(AdjacencyV2Test, V1BlobsStillDecode) {
  // Old stores hold v1 blobs; the auto-detecting decoder must keep reading
  // them regardless of the configured encoding.
  const Graph g = GenerateErdosRenyi(80, 400, 12);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto raw = EncodeAdjacency(g, u);  // default = kRaw = v1
    EXPECT_EQ(raw.size(), g.AdjacencyBytes(u));
    const AdjacencyPtr decoded = DecodeBoth(raw);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->node, u);
    EXPECT_EQ(decoded->SerializedBytes(), raw.size());
  }
}

TEST(AdjacencyV2Test, DecodeIntoReusedEntryLeavesNoStaleEdges) {
  GraphBuilder b;
  for (NodeId v = 2; v < 700; ++v) {
    b.AddEdge(0, v, static_cast<Label>(v % 3));  // hub: 698 out edges
  }
  b.AddEdge(1, 0, 5);  // leaf: one out and one in edge
  b.AddEdge(5, 1, 6);
  const Graph g = b.Build();
  for (const AdjacencyEncoding enc :
       {AdjacencyEncoding::kRaw, AdjacencyEncoding::kDeltaVarint}) {
    AdjacencyEntry entry;
    for (const NodeId u : {0u, 1u, 0u}) {
      const auto blob = EncodeAdjacency(g, u, enc);
      ASSERT_TRUE(DecodeAdjacencyInto(blob, &entry));
      const AdjacencyPtr fresh = DecodeAdjacency(blob);
      ASSERT_NE(fresh, nullptr);
      ExpectEntriesEqual(*fresh, entry);
      EXPECT_EQ(entry.out.size(), g.OutDegree(u));
      EXPECT_EQ(entry.in.size(), g.InDegree(u));
    }
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
  const CachedAdjacency* slot = cache.Get(5);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->encoded, tier.PeekCurrent(5));
}

// The graph's own adjacency of u, as the reference a decoded entry must
// equal.
AdjacencyEntry GraphEntry(const Graph& g, NodeId u) {
  AdjacencyEntry entry;
  entry.node = u;
  entry.node_label = g.node_label(u);
  const auto out = g.OutNeighbors(u);
  const auto in = g.InNeighbors(u);
  entry.out.assign(out.begin(), out.end());
  entry.in.assign(in.begin(), in.end());
  return entry;
}

// Entries decoded into the source's reusable pool (compressed hits,
// compressed misses, no-cache fetches) must never change while a caller
// holds them, however many later fetches recycle the pool around them.
TEST(CompressedCacheTest, HeldPooledEntriesSurviveLaterFetches) {
  const Graph g = GenerateBarabasiAlbert(800, 6, 16);
  StorageTier tier(4);
  tier.set_encoding(AdjacencyEncoding::kDeltaVarint);
  tier.LoadGraph(g);
  NodeCache<CachedAdjacency> cache(1 << 24);
  CachedStorageSource compressed(&tier, &cache, 1, /*cache_compressed=*/true);
  CachedStorageSource nocache(&tier, /*cache=*/nullptr);

  // The held entries are the graph's biggest hub (so a recycled slot would
  // have to shrink to overwrite it) and two others; the later batches
  // never ask for any of the three.
  NodeId hub = 0;
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    if (g.Degree(u) > g.Degree(hub)) {
      hub = u;
    }
  }
  const NodeId held[3] = {hub, hub == 0 ? 1u : 0u, hub == 2 ? 1u : 2u};
  (void)compressed.FetchOne(held[0]);
  const AdjacencyPtr hit = compressed.FetchOne(held[0]);
  EXPECT_EQ(compressed.trace().cache_hits, 1u);
  const AdjacencyPtr miss = compressed.FetchOne(held[1]);
  const AdjacencyPtr fetched = nocache.FetchOne(held[2]);
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  ASSERT_NE(fetched, nullptr);

  Rng rng(17);
  std::vector<NodeId> batch;
  for (int call = 0; call < 200; ++call) {
    batch.clear();
    const size_t size = 1 + rng.NextBounded(call % 10 == 0 ? 400 : 8);
    while (batch.size() < size) {
      const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      if (std::find(std::begin(held), std::end(held), u) == std::end(held)) {
        batch.push_back(u);
      }
    }
    CachedStorageSource& source = call % 2 == 0 ? compressed : nocache;
    const auto entries = source.FetchBatch(batch);
    ASSERT_EQ(entries.size(), batch.size());
    for (size_t k = 0; k < batch.size(); ++k) {
      ASSERT_NE(entries[k], nullptr);
      ASSERT_EQ(entries[k]->node, batch[k]);
    }
  }
  ExpectEntriesEqual(*hit, GraphEntry(g, held[0]));
  ExpectEntriesEqual(*miss, GraphEntry(g, held[1]));
  ExpectEntriesEqual(*fetched, GraphEntry(g, held[2]));
}

// Pooled decoding is invisible to answers and to cache accounting: the
// same seeded hotspot stream gives identical answers and per-query hit
// counts on a raw tier with a decoded cache and on a delta_varint tier with
// a compressed cache (budget large enough that nothing is evicted).
TEST(CompressedCacheTest, PooledDecodeKeepsAnswersAndHitsAcrossModes) {
  const Graph g = GenerateBarabasiAlbert(2000, 5, 18);
  WorkloadConfig wc;
  wc.num_hotspots = 30;
  wc.queries_per_hotspot = 10;
  wc.seed = 19;
  const std::vector<Query> queries = GenerateHotspotWorkload(g, wc);
  ASSERT_EQ(queries.size(), 300u);

  struct Outcome {
    std::vector<QueryResult> results;
    std::vector<uint64_t> hits;
  };
  auto run = [&](AdjacencyEncoding enc, bool compressed) {
    StorageTier tier(4);
    tier.set_encoding(enc);
    tier.LoadGraph(g);
    NodeCache<CachedAdjacency> cache(4 * g.TotalAdjacencyBytes());
    CachedStorageSource source(&tier, &cache, 1, compressed);
    Outcome out;
    for (const Query& q : queries) {
      source.ResetTrace();
      out.results.push_back(ExecuteQuery(q, source));
      out.hits.push_back(source.trace().cache_hits);
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    return out;
  };
  const Outcome raw = run(AdjacencyEncoding::kRaw, false);
  const Outcome pooled = run(AdjacencyEncoding::kDeltaVarint, true);
  uint64_t total_hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult& a = raw.results[i];
    const QueryResult& b = pooled.results[i];
    EXPECT_EQ(a.aggregate, b.aggregate) << "query " << i;
    EXPECT_EQ(a.walk_end, b.walk_end) << "query " << i;
    EXPECT_EQ(a.walk_distinct_nodes, b.walk_distinct_nodes) << "query " << i;
    EXPECT_EQ(a.reachable, b.reachable) << "query " << i;
    EXPECT_EQ(a.distance, b.distance) << "query " << i;
    EXPECT_EQ(raw.hits[i], pooled.hits[i]) << "query " << i;
    total_hits += raw.hits[i];
  }
  EXPECT_GT(total_hits, 0u);
}

}  // namespace
}  // namespace grouting
