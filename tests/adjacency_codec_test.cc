// Tests for the v2 (delta + LEB128 varint) adjacency wire format: round-trip
// identity against the v1 decoder, degenerate node shapes, corruption
// handling (nullptr, never a crash), and the compressed processor cache
// built on top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <tuple>
#include <vector>

#include "src/graph/generators.h"
#include "src/proc/processor.h"
#include "src/storage/adjacency.h"
#include "src/storage/storage_tier.h"
#include "src/query/query.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/mutations.h"
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

// The one decoder through every entry point: DecodeAdjacency (fresh
// entry), DecodeAdjacencyInto (in place) and DecodeAdjacencyHeader (header
// only). The two full decoders must agree on accept/reject and, on accept,
// on the entry. The header reader must accept whatever they accept, with
// the entry's node, label and edge counts; whatever it rejects, they
// reject too. The in-place side decodes into one entry reused across every
// call of the test binary, after hubs, leaves and rejected blobs alike —
// the way a processor's decode pool reuses its slots.
AdjacencyPtr DecodeAllWays(std::span<const uint8_t> bytes) {
  static AdjacencyEntry reused;
  const AdjacencyPtr fresh = DecodeAdjacency(bytes);
  const bool accepted = DecodeAdjacencyInto(bytes, &reused);
  EXPECT_EQ(accepted, fresh != nullptr);
  if (accepted && fresh != nullptr) {
    ExpectEntriesEqual(*fresh, reused);
  }
  AdjacencyHeader header;
  const bool header_ok = DecodeAdjacencyHeader(bytes, &header);
  if (fresh != nullptr) {
    EXPECT_TRUE(header_ok);
    EXPECT_EQ(header.node, fresh->node);
    EXPECT_EQ(header.node_label, fresh->node_label);
    EXPECT_EQ(header.out_count, fresh->out.size());
    EXPECT_EQ(header.in_count, fresh->in.size());
  }
  if (!header_ok) {
    EXPECT_EQ(fresh, nullptr);
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
    const AdjacencyPtr from_raw = DecodeAllWays(raw);
    const AdjacencyPtr from_dv = DecodeAllWays(dv);
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
  const AdjacencyPtr decoded = DecodeAllWays(dv);
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
  const AdjacencyPtr decoded = DecodeAllWays(dv);
  ASSERT_NE(decoded, nullptr);
  ExpectEntriesEqual(entry, *decoded);
}

TEST(AdjacencyV2Test, TruncatedInputReturnsNullNoCrash) {
  const Graph g = GenerateErdosRenyi(50, 300, 9);
  for (NodeId u = 0; u < 8; ++u) {
    const auto dv = EncodeAdjacency(g, u, AdjacencyEncoding::kDeltaVarint);
    for (size_t len = 0; len < dv.size(); ++len) {
      const std::span<const uint8_t> prefix(dv.data(), len);
      EXPECT_EQ(DecodeAllWays(prefix), nullptr) << "len=" << len;
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
      (void)DecodeAllWays(bad);
    }
    // Random garbage of assorted sizes.
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<uint8_t> junk(rng.NextBounded(64));
      for (auto& byte : junk) {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
      (void)DecodeAllWays(junk);
    }
  }
  // Structured corruption: v2 header with absurd counts must be rejected
  // before any allocation.
  const std::vector<uint8_t> absurd = {0xC2, 0x02, 0x01, 0x00,
                                       0xff, 0xff, 0xff, 0xff, 0x0f,  // out count
                                       0x00};
  EXPECT_EQ(DecodeAllWays(absurd), nullptr);
}

TEST(AdjacencyV2Test, V1BlobsStillDecode) {
  // Old stores hold v1 blobs; the auto-detecting decoder must keep reading
  // them regardless of the configured encoding.
  const Graph g = GenerateErdosRenyi(80, 400, 12);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto raw = EncodeAdjacency(g, u);  // default = kRaw = v1
    EXPECT_EQ(raw.size(), g.AdjacencyBytes(u));
    const AdjacencyPtr decoded = DecodeAllWays(raw);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->node, u);
    EXPECT_EQ(decoded->SerializedBytes(), raw.size());
  }
}

// A v2 encoding that would also pass the v1 structural check: 28 bytes
// (16 + 6 * 2), zero "reserved" bytes 6..7 (the first two dst deltas),
// "out count" 2 (the third delta) and "in count" 0. The encoder pads it to
// 29 bytes, and every reader must take the padded blob as v2.
TEST(AdjacencyV2Test, PaddedBlobDecodesAsV2Everywhere) {
  AdjacencyEntry entry;
  entry.node = 1;
  entry.node_label = 0;
  entry.out.assign(20, Edge{1, 0});
  entry.out[0].dst = 0;
  entry.out[1].dst = 0;
  const auto dv = EncodeAdjacency(entry, AdjacencyEncoding::kDeltaVarint);
  ASSERT_EQ(dv.size(), 29u);
  EXPECT_EQ(dv.back(), 0);
  const AdjacencyPtr decoded = DecodeAllWays(dv);
  ASSERT_NE(decoded, nullptr);
  ExpectEntriesEqual(entry, *decoded);
  AdjacencyHeader header;
  ASSERT_TRUE(DecodeAdjacencyHeader(dv, &header));
  EXPECT_EQ(header.encoding, AdjacencyEncoding::kDeltaVarint);

  // Without the pad the same bytes are a well-formed v1 blob of another
  // entry, which is why the pad exists.
  const std::span<const uint8_t> unpadded(dv.data(), dv.size() - 1);
  ASSERT_TRUE(DecodeAdjacencyHeader(unpadded, &header));
  EXPECT_EQ(header.encoding, AdjacencyEncoding::kRaw);
  EXPECT_EQ(header.out_count, 2u);
  EXPECT_EQ(header.in_count, 0u);
  EXPECT_NE(DecodeAllWays(unpadded), nullptr);
}

// Blobs whose header alone is malformed: the header reader rejects each
// one, and so does the full decoder.
TEST(AdjacencyV2Test, HeaderReaderRejectsWhatTheDecoderRejectsForHeaderReasons) {
  const std::vector<std::vector<uint8_t>> bad_headers = {
      {},                                      // empty
      {0xC2},                                  // magic only
      {0xC3, 0x02, 0x01, 0x00, 0x00, 0x00},    // wrong magic
      {0xC2, 0x03, 0x01, 0x00, 0x00, 0x00},    // wrong version
      {0xC2, 0x02},                            // no fields
      {0xC2, 0x02, 0x80},                      // truncated node varint
      {0xC2, 0x02, 0x01, 0x00, 0x00},          // missing in count
      {0xC2, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00, 0x00},  // node 2^32
      {0xC2, 0x02, 0x01, 0x80, 0x80, 0x04, 0x00, 0x00},  // label 0x10000
      {0xC2, 0x02, 0x01, 0x00, 0x02, 0x01, 0x00},  // 3 edges, 1 payload byte
      {0xC2, 0x02, 0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00},  // absurd
      {0xC2, 0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
       0xff, 0x01, 0x00, 0x00, 0x00},          // node varint over 10 bytes
      // v1-shaped but the size disagrees with the counts (one edge short).
      {0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
      // v1 size for its counts but nonzero reserved bytes.
      {0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x07, 0x00,
       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
  };
  for (size_t i = 0; i < bad_headers.size(); ++i) {
    AdjacencyHeader header;
    EXPECT_FALSE(DecodeAdjacencyHeader(bad_headers[i], &header)) << "case " << i;
    EXPECT_EQ(DecodeAllWays(bad_headers[i]), nullptr) << "case " << i;
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

// The header check is the whole check for v1 blobs, which is what lets a
// label-only miss read only the header. Over seeded inputs — random byte
// strings, random v1-shaped blobs, and every prefix and many single-byte
// flips of real v1 blobs — whenever DecodeAdjacencyHeader accepts with
// encoding kRaw, DecodeAdjacencyInto accepts too, with the same node, label
// and counts; and whenever DecodeAdjacencyInto accepts bytes that are the
// v1 encoding of what it decoded, the header accepts them as kRaw.
TEST(AdjacencyV1HeaderTest, HeaderAcceptsExactlyTheV1BlobsTheDecoderAccepts) {
  const Graph g = GenerateBarabasiAlbert(300, 4, 31, LabelConfig{5, 0});
  Rng rng(32);
  AdjacencyEntry reused;
  size_t raw_accepts = 0;
  size_t rejects = 0;
  auto check = [&](std::span<const uint8_t> bytes) {
    AdjacencyHeader header;
    const bool header_raw = DecodeAdjacencyHeader(bytes, &header) &&
                            header.encoding == AdjacencyEncoding::kRaw;
    const bool decoded = DecodeAdjacencyInto(bytes, &reused);
    if (header_raw) {
      ++raw_accepts;
      ASSERT_TRUE(decoded);
      EXPECT_EQ(reused.node, header.node);
      EXPECT_EQ(reused.node_label, header.node_label);
      EXPECT_EQ(reused.out.size(), header.out_count);
      EXPECT_EQ(reused.in.size(), header.in_count);
    }
    if (!decoded) {
      ++rejects;
      return;
    }
    const auto v1 = EncodeAdjacency(reused, AdjacencyEncoding::kRaw);
    if (std::equal(v1.begin(), v1.end(), bytes.begin(), bytes.end())) {
      EXPECT_TRUE(header_raw);
    }
  };
  auto random_bytes = [&](size_t size) {
    std::vector<uint8_t> bytes(size);
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.NextBounded(256));
    }
    return bytes;
  };

  for (int trial = 0; trial < 2000; ++trial) {
    check(random_bytes(rng.NextBounded(80)));
    // v1-shaped: the declared counts match the size, reserved bytes zero,
    // anything at all in the fields and edges.
    const uint32_t out_count = static_cast<uint32_t>(rng.NextBounded(5));
    const uint32_t in_count = static_cast<uint32_t>(rng.NextBounded(5));
    std::vector<uint8_t> shaped = random_bytes(16 + 6 * (out_count + in_count));
    shaped[6] = 0;
    shaped[7] = 0;
    std::memcpy(shaped.data() + 8, &out_count, 4);
    std::memcpy(shaped.data() + 12, &in_count, 4);
    check(shaped);
  }
  for (NodeId u = 0; u < 40; ++u) {
    const auto raw = EncodeAdjacency(g, u, AdjacencyEncoding::kRaw);
    for (size_t len = 0; len <= raw.size(); ++len) {
      check(std::span<const uint8_t>(raw.data(), len));
    }
    auto longer = raw;
    longer.push_back(0);
    check(longer);
    for (int flip = 0; flip < 64; ++flip) {
      auto bad = raw;
      bad[rng.NextBounded(bad.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      check(bad);
    }
  }
  // Both sides of the property were exercised, not just one.
  EXPECT_GT(raw_accepts, 2000u);
  EXPECT_GT(rejects, 2000u);
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

// ---- label-only fetches -------------------------------------------------

// Forwards only FetchBatch, so FetchLabels runs the NodeDataSource default:
// a full FetchBatch whose labels are read. The reference for the label-only
// path of CachedStorageSource.
class FetchBatchOnly : public NodeDataSource {
 public:
  explicit FetchBatchOnly(NodeDataSource* inner) : inner_(inner) {}

  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    return inner_->FetchBatch(nodes);
  }
  const FetchTrace& trace() const override { return inner_->trace(); }
  void ResetTrace() override { inner_->ResetTrace(); }

 private:
  NodeDataSource* inner_;
};

void ExpectSameTrace(const FetchTrace& a, const FetchTrace& b, size_t query) {
  EXPECT_EQ(a.cache_hits, b.cache_hits) << "query " << query;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << "query " << query;
  EXPECT_EQ(a.cache_lookups, b.cache_lookups) << "query " << query;
  EXPECT_EQ(a.visited, b.visited) << "query " << query;
  EXPECT_EQ(a.bytes_fetched, b.bytes_fetched) << "query " << query;
  EXPECT_EQ(a.levels, b.levels) << "query " << query;
  ASSERT_EQ(a.batches.size(), b.batches.size()) << "query " << query;
  for (size_t k = 0; k < a.batches.size(); ++k) {
    const FetchTrace::Batch& x = a.batches[k];
    const FetchTrace::Batch& y = b.batches[k];
    EXPECT_EQ(std::tie(x.server, x.values, x.bytes, x.edges, x.level),
              std::tie(y.server, y.values, y.bytes, y.edges, y.level))
        << "query " << query << " batch " << k;
  }
  ASSERT_EQ(a.level_stats.size(), b.level_stats.size()) << "query " << query;
  for (size_t k = 0; k < a.level_stats.size(); ++k) {
    const FetchTrace::Level& x = a.level_stats[k];
    const FetchTrace::Level& y = b.level_stats[k];
    EXPECT_EQ(std::tie(x.lookups, x.hits, x.misses, x.fetched, x.hit_edges,
                       x.fetched_edges),
              std::tie(y.lookups, y.hits, y.misses, y.fetched, y.hit_edges,
                       y.fetched_edges))
        << "query " << query << " level " << k;
  }
}

// CachedStorageSource::FetchLabels (slot-only hits, no handle copy on
// decoded hits, header-only reads of v1 misses no cache keeps decoded,
// scratch decode of such v2 misses) must be
// invisible: over 300 seeded queries the answers and the whole FetchTrace
// equal those of the FetchBatch-only reference, in every cache mode. The
// hotspot generator never sets a label filter, so label-filtered
// aggregations and reachability queries are built here. Entries a caller
// holds from FetchBatch survive all of it unchanged.
TEST(LabelFetchTest, LabelOnlyFetchesMatchFullFetchesInEveryCacheMode) {
  const Graph g = GenerateBarabasiAlbert(2000, 5, 18, LabelConfig{3, 0});
  WorkloadConfig wc;
  wc.num_hotspots = 15;
  wc.queries_per_hotspot = 10;
  wc.hops = 3;
  wc.seed = 20;
  std::vector<Query> queries = GenerateHotspotWorkload(g, wc);
  Rng rng(21);
  for (int i = 0; i < 150; ++i) {
    Query q;
    q.type = i % 2 == 0 ? QueryType::kNeighborAggregation : QueryType::kReachability;
    q.node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.target = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.hops = 1 + static_cast<int32_t>(rng.NextBounded(4));
    q.label_filter = static_cast<Label>(1 + rng.NextBounded(3));
    queries.push_back(q);
  }
  ASSERT_EQ(queries.size(), 300u);

  struct Mode {
    const char* name;
    AdjacencyEncoding encoding;
    bool use_cache;
    bool compressed;
  };
  const Mode modes[] = {
      {"raw/decoded", AdjacencyEncoding::kRaw, true, false},
      {"raw/compressed", AdjacencyEncoding::kRaw, true, true},
      {"raw/no-cache", AdjacencyEncoding::kRaw, false, false},
      {"delta_varint/compressed", AdjacencyEncoding::kDeltaVarint, true, true},
      {"delta_varint/no-cache", AdjacencyEncoding::kDeltaVarint, false, false},
  };
  const NodeId held_nodes[] = {0, 1, 7};
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    // A budget that evicts, so both paths also see identical churn.
    const uint64_t budget = g.TotalAdjacencyBytes() / 8;
    StorageTier tier_a(4);
    StorageTier tier_b(4);
    NodeCache<CachedAdjacency> cache_a(budget);
    NodeCache<CachedAdjacency> cache_b(budget);
    for (StorageTier* tier : {&tier_a, &tier_b}) {
      tier->set_encoding(mode.encoding);
      tier->LoadGraph(g);
    }
    CachedStorageSource labels(&tier_a, mode.use_cache ? &cache_a : nullptr, 1,
                               mode.compressed);
    CachedStorageSource full(&tier_b, mode.use_cache ? &cache_b : nullptr, 1,
                             mode.compressed);
    FetchBatchOnly reference(&full);

    // Held across every label fetch below: misses (or no-cache fetches),
    // then hits in the cached modes. The reference makes the same fetches,
    // so both caches start the queries in the same state.
    const auto held_first = labels.FetchBatch(held_nodes);
    const auto held_again = labels.FetchBatch(held_nodes);
    full.FetchBatch(held_nodes);
    full.FetchBatch(held_nodes);

    for (size_t i = 0; i < queries.size(); ++i) {
      labels.ResetTrace();
      reference.ResetTrace();
      const QueryResult a = ExecuteQuery(queries[i], labels);
      const QueryResult b = ExecuteQuery(queries[i], reference);
      EXPECT_EQ(a.aggregate, b.aggregate) << "query " << i;
      EXPECT_EQ(a.walk_end, b.walk_end) << "query " << i;
      EXPECT_EQ(a.walk_distinct_nodes, b.walk_distinct_nodes) << "query " << i;
      EXPECT_EQ(a.reachable, b.reachable) << "query " << i;
      EXPECT_EQ(a.distance, b.distance) << "query " << i;
      ExpectSameTrace(labels.trace(), reference.trace(), i);
    }
    if (mode.use_cache) {
      EXPECT_GT(cache_a.stats().evictions, 0u);
      EXPECT_EQ(cache_a.stats().evictions, cache_b.stats().evictions);
      EXPECT_EQ(cache_a.entry_count(), cache_b.entry_count());
    }
    for (size_t k = 0; k < std::size(held_nodes); ++k) {
      const AdjacencyEntry want = GraphEntry(g, held_nodes[k]);
      ASSERT_NE(held_first[k], nullptr);
      ASSERT_NE(held_again[k], nullptr);
      ExpectEntriesEqual(*held_first[k], want);
      ExpectEntriesEqual(*held_again[k], want);
    }
  }
}

// Every probe of a slot installed before a mutation of its node misses and
// refetches, and the refetched slot's label and edge count follow the new
// blob. Seeded edge mutations go through StorageTier::ApplyMutation between
// queries on both tiers; FetchLabels must still match the FetchBatch-only
// reference in answers and the whole FetchTrace, in every cache mode. Then
// one cached node is mutated directly: its next label-only probe is a miss,
// the slot it leaves carries the new edge count, and the probe after that
// is a hit that reports it.
TEST(LabelFetchTest, MutatedSlotsRefetchAndTheirLabelAndEdgeCountFollow) {
  const Graph g = GenerateBarabasiAlbert(2000, 5, 18, LabelConfig{3, 0});
  WorkloadConfig wc;
  wc.num_hotspots = 15;
  wc.queries_per_hotspot = 10;
  wc.hops = 3;
  wc.seed = 22;
  std::vector<Query> queries = GenerateHotspotWorkload(g, wc);
  Rng rng(23);
  for (int i = 0; i < 150; ++i) {
    Query q;
    q.type = i % 2 == 0 ? QueryType::kNeighborAggregation : QueryType::kReachability;
    q.node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.target = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    q.hops = 1 + static_cast<int32_t>(rng.NextBounded(4));
    q.label_filter = static_cast<Label>(1 + rng.NextBounded(3));
    queries.push_back(q);
  }
  ASSERT_EQ(queries.size(), 300u);
  MutationScheduleConfig mc;
  mc.num_mutations = 2 * queries.size();
  mc.weight_add_vertex = 0.0;
  mc.seed = 24;
  const std::vector<GraphMutation> schedule = GenerateMutationSchedule(g, {}, mc);
  ASSERT_EQ(schedule.size(), 2 * queries.size());

  struct Mode {
    const char* name;
    AdjacencyEncoding encoding;
    bool use_cache;
    bool compressed;
  };
  const Mode modes[] = {
      {"raw/decoded", AdjacencyEncoding::kRaw, true, false},
      {"raw/compressed", AdjacencyEncoding::kRaw, true, true},
      {"raw/no-cache", AdjacencyEncoding::kRaw, false, false},
      {"delta_varint/compressed", AdjacencyEncoding::kDeltaVarint, true, true},
      {"delta_varint/no-cache", AdjacencyEncoding::kDeltaVarint, false, false},
  };
  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    const uint64_t budget = g.TotalAdjacencyBytes() / 8;
    StorageTier tier_a(4);
    StorageTier tier_b(4);
    NodeCache<CachedAdjacency> cache_a(budget);
    NodeCache<CachedAdjacency> cache_b(budget);
    for (StorageTier* tier : {&tier_a, &tier_b}) {
      tier->set_encoding(mode.encoding);
      tier->EnableMutations(g);
      tier->LoadGraph(g);
    }
    CachedStorageSource labels(&tier_a, mode.use_cache ? &cache_a : nullptr, 1,
                               mode.compressed);
    CachedStorageSource full(&tier_b, mode.use_cache ? &cache_b : nullptr, 1,
                             mode.compressed);
    FetchBatchOnly reference(&full);

    uint64_t misses = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (const GraphMutation& m : {schedule[2 * i], schedule[2 * i + 1]}) {
        tier_a.ApplyMutation(m);
        tier_b.ApplyMutation(m);
      }
      labels.ResetTrace();
      reference.ResetTrace();
      const QueryResult a = ExecuteQuery(queries[i], labels);
      const QueryResult b = ExecuteQuery(queries[i], reference);
      EXPECT_EQ(a.aggregate, b.aggregate) << "query " << i;
      EXPECT_EQ(a.reachable, b.reachable) << "query " << i;
      EXPECT_EQ(a.distance, b.distance) << "query " << i;
      ExpectSameTrace(labels.trace(), reference.trace(), i);
      misses += labels.trace().cache_misses;
    }
    EXPECT_GT(misses, 0u);
    if (!mode.use_cache) {
      continue;
    }
    EXPECT_EQ(cache_a.stats().evictions, cache_b.stats().evictions);

    // A node with an out-edge, cached with a current slot.
    NodeId u = schedule.back().u;
    auto current = [&] { return DecodeAdjacency(*tier_a.PeekCurrent(u)); };
    while (current()->out.empty()) {
      u = (u + 1) % g.num_nodes();
    }
    const AdjacencyPtr before = current();
    const NodeId node[] = {u};
    labels.FetchLabels(node);
    ASSERT_TRUE(cache_a.Contains(u));

    // Remove one of its out-edges: the slot goes stale.
    const Edge removed = before->out[0];
    tier_a.ApplyMutation(
        GraphMutation{GraphMutation::Kind::kRemoveEdge, u, removed.dst, removed.label});
    const AdjacencyPtr after = current();
    ASSERT_NE(after, nullptr);
    const uint64_t edges_after = after->out.size() + after->in.size();
    ASSERT_NE(edges_after, before->out.size() + before->in.size());

    labels.ResetTrace();
    const auto refetched = labels.FetchLabels(node);
    EXPECT_EQ(labels.trace().cache_hits, 0u);
    EXPECT_EQ(labels.trace().cache_misses, 1u);
    ASSERT_TRUE(refetched[0].has_value());
    EXPECT_EQ(*refetched[0], g.node_label(u));
    const CachedAdjacency* slot = cache_a.Get(u);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->label, after->node_label);
    EXPECT_EQ(slot->edges, edges_after);
    EXPECT_EQ(slot->version, tier_a.NodeVersion(u));

    labels.ResetTrace();
    const auto hit = labels.FetchLabels(node);
    EXPECT_EQ(labels.trace().cache_hits, 1u);
    ASSERT_TRUE(hit[0].has_value());
    EXPECT_EQ(*hit[0], g.node_label(u));
    ASSERT_EQ(labels.trace().level_stats.size(), 1u);
    EXPECT_EQ(labels.trace().level_stats[0].hit_edges, edges_after);
  }
}

}  // namespace
}  // namespace grouting
