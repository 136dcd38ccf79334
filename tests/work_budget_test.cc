// Deterministic work budgets for the processor fetch path and the storage
// tier. Wall-clock numbers drift too much to gate tightly, but heap
// allocations are exact: a fixed, seeded, single-threaded replay performs
// the same operator new calls on every run. The fetch-path tests replay
// 500 hotspot queries through one CachedStorageSource over 4 storage
// servers and check allocations per query and peak live heap bytes
// (malloc_usable_size); the storage tests check allocations per
// StorageTier::ApplyMutation, per StorageServer::MultiGet (fresh and
// filled-in result vector) and per StartMultiGet + Execute on a reused
// handle; the routing
// test checks allocations per RoutingStrategy::Route for each scheme. Every
// budget
// is written here. A change in a budget is a gate change and is reported as
// one.
//
// The counters are thread-local and replace the global operator new /
// operator delete. ASan and TSan replace the allocator themselves, so under
// them the replacement is compiled out and every test skips.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/graph/generators.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/routing/strategy.h"
#include "src/storage/storage_tier.h"
#include "src/util/rng.h"
#include "src/workload/mutations.h"
#include "src/workload/workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GROUTING_ALLOCATOR_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GROUTING_ALLOCATOR_REPLACED 1
#endif
#endif

namespace {

struct HeapCounters {
  bool counting = false;
  uint64_t allocs = 0;
  int64_t live = 0;  // bytes, relative to when counting started
  int64_t peak = 0;
};

thread_local HeapCounters t_heap;

}  // namespace

#ifndef GROUTING_ALLOCATOR_REPLACED

void* operator new(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  if (t_heap.counting) {
    ++t_heap.allocs;
    t_heap.live += static_cast<int64_t>(malloc_usable_size(p));
    t_heap.peak = std::max(t_heap.peak, t_heap.live);
  }
  return p;
}

void* operator new[](size_t size) { return operator new(size); }

void operator delete(void* p) noexcept {
  if (p != nullptr && t_heap.counting) {
    t_heap.live -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, size_t) noexcept { operator delete(p); }
void operator delete[](void* p, size_t) noexcept { operator delete(p); }

#endif  // GROUTING_ALLOCATOR_REPLACED

namespace grouting {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Scoped counting window on the calling thread.
class HeapProbe {
 public:
  HeapProbe() { t_heap = HeapCounters{.counting = true}; }
  ~HeapProbe() { t_heap.counting = false; }
  uint64_t allocs() const { return t_heap.allocs; }
  double peak_mib() const { return static_cast<double>(t_heap.peak) / kMiB; }
};

struct Fixture {
  Graph graph = GenerateBarabasiAlbert(20000, 8, 7);
  std::vector<Query> queries = GenerateHotspotWorkload(graph, [] {
    WorkloadConfig wc;
    wc.num_hotspots = 50;
    wc.seed = 11;
    return wc;
  }());
};

const Fixture& SharedFixture() {
  static const Fixture fixture;
  return fixture;
}

enum class Mode { kWarmRaw, kWarmCompressed, kNoCache, kColdCompressed };

struct Work {
  double allocs_per_query = 0.0;
  double peak_live_mib = 0.0;
  uint64_t cache_hits = 0;
};

// Replays the fixture's queries in `mode` and counts the heap work of the
// measured pass. Warm modes (and no-cache) run one unmeasured warm-up pass
// first; the peak live heap spans warm-up and measured pass, counted from
// just before the processor-side state (cache and source) is built, so
// whatever the source keeps between queries is in it.
Work Replay(Mode mode) {
  const Fixture& f = SharedFixture();
  const bool compressed = mode == Mode::kWarmCompressed || mode == Mode::kColdCompressed;
  StorageTier tier(4);
  tier.set_encoding(compressed ? AdjacencyEncoding::kDeltaVarint
                               : AdjacencyEncoding::kRaw);
  tier.LoadGraph(f.graph);

  HeapProbe probe;
  std::unique_ptr<NodeCache<CachedAdjacency>> cache;
  if (mode != Mode::kNoCache) {
    // Budget far above the working set: nothing is ever evicted.
    const uint64_t budget = 4 * f.graph.TotalAdjacencyBytes();
    cache = std::make_unique<NodeCache<CachedAdjacency>>(budget);
  }
  CachedStorageSource source(&tier, cache.get(), 1, compressed);
  auto pass = [&] {
    uint64_t hits = 0;
    for (const Query& q : f.queries) {
      source.ResetTrace();
      ExecuteQuery(q, source);
      hits += source.trace().cache_hits;
    }
    return hits;
  };
  if (mode != Mode::kColdCompressed) {
    pass();
  }
  const uint64_t allocs_before = probe.allocs();
  Work work;
  work.cache_hits = pass();
  work.allocs_per_query = static_cast<double>(probe.allocs() - allocs_before) /
                          static_cast<double>(f.queries.size());
  work.peak_live_mib = probe.peak_mib();
  if (cache != nullptr) {
    EXPECT_EQ(cache->stats().evictions, 0u);
  }
  return work;
}

// Replays `mode` and checks it against its budget. The figures each budget
// was set from (this fixture, one x86-64 Linux host, GCC 12 / libstdc++)
// are noted beside it; the headroom absorbs libstdc++/glibc differences,
// not growth.
void ExpectWithinBudget(Mode mode, const char* name, double max_allocs_per_query,
                        double max_peak_live_mib) {
  const Work work = Replay(mode);
  std::printf("[ work     ] %-16s %8.1f allocs/query  peak live %.2f MiB  hits %llu\n",
              name, work.allocs_per_query, work.peak_live_mib,
              static_cast<unsigned long long>(work.cache_hits));
  EXPECT_LE(work.allocs_per_query, max_allocs_per_query) << name;
  EXPECT_LE(work.peak_live_mib, max_peak_live_mib) << name;
}

class WorkBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef GROUTING_ALLOCATOR_REPLACED
    GTEST_SKIP() << "the sanitizer replaces operator new; budgets are not comparable";
#endif
  }
};

// Decoded cache: a hit hands out the cached entry itself; what is left is
// the traversal's own bookkeeping (17.5 allocs/query, 6.55 MiB; a
// std::list node per cache entry took 7.26 MiB).
TEST_F(WorkBudgetTest, WarmRawHits) {
  ExpectWithinBudget(Mode::kWarmRaw, "warm raw", 20.0, 7.3);
}

// Compressed cache: a hit whose edges the query reads decodes into a reused
// pool slot; a last-level hit reads only its cache slot (22.8
// allocs/query, 2.86 MiB; a std::list node per cache entry took 3.74 MiB;
// decoding every hit into the pool took 178.7, 7.32; a fresh entry per hit
// took 1350.6, 6.34).
TEST_F(WorkBudgetTest, WarmCompressedHits) {
  ExpectWithinBudget(Mode::kWarmCompressed, "warm compressed", 25.0, 3.2);
}

// No cache: a fetch that hands out entries decodes into the pool; a
// last-level, label-only fetch of these v1 blobs reads just each header;
// the source reuses its miss list, batch slots and multiget handles (26.5
// allocs/query, 0.98 MiB; a fresh handle, key vector and miss list per
// fetch took 84.6, 0.99; decoding label-only misses into one scratch
// entry, which shrank and regrew on every hub, took 163.3, 0.99; pooling
// every fetch took 240.5, 4.85; a fresh entry per fetch took 1411.6, 3.62).
TEST_F(WorkBudgetTest, NoCache) {
  ExpectWithinBudget(Mode::kNoCache, "no-cache", 29.0, 1.1);
}

// Cold compressed cache: misses install blobs into slab slots and decode
// into the pool or the scratch entry while the pool itself grows (31.3
// allocs/query, 2.93 MiB; a fresh handle, key vector and miss list per
// fetch took 46.4, 2.86; a std::list node per cache entry took 86.1,
// 3.74; decoding every hit into the pool took 309.8, 7.01; a fresh entry
// per decode took 1406.7, 6.34).
TEST_F(WorkBudgetTest, ColdCompressed) {
  ExpectWithinBudget(Mode::kColdCompressed, "cold compressed", 35.0, 3.2);
}

// Allocations per StorageTier::ApplyMutation over 500 seeded edge
// mutations (inserts and removals of real edges) against the fixture graph
// on 4 storage servers, mutations on.
double AllocsPerMutation() {
  const Fixture& f = SharedFixture();
  StorageTier tier(4);
  tier.EnableMutations(f.graph);
  tier.LoadGraph(f.graph);
  MutationScheduleConfig mc;
  mc.num_mutations = 500;
  mc.weight_add_vertex = 0.0;
  mc.seed = 17;
  const std::vector<GraphMutation> schedule =
      GenerateMutationSchedule(f.graph, {}, mc);
  HeapProbe probe;
  for (const GraphMutation& m : schedule) {
    tier.ApplyMutation(m);
  }
  return static_cast<double>(probe.allocs()) / static_cast<double>(schedule.size());
}

// The 128 keys server 0 of `tier` holds first, in node order.
std::vector<NodeId> ServerZeroKeys(const StorageTier& tier, const Graph& g) {
  constexpr size_t kKeys = 128;
  std::vector<NodeId> keys;
  for (NodeId u = 0; u < g.num_nodes() && keys.size() < kKeys; ++u) {
    if (tier.ServerOf(u) == 0) {
      keys.push_back(u);
    }
  }
  EXPECT_EQ(keys.size(), kKeys);
  return keys;
}

// Allocations per 128-key StorageServer::MultiGet: 100 calls, each over 128
// keys server 0 holds.
double AllocsPerMultiGet() {
  constexpr int kCalls = 100;
  const Fixture& f = SharedFixture();
  StorageTier tier(4);
  tier.LoadGraph(f.graph);
  const std::vector<NodeId> keys = ServerZeroKeys(tier, f.graph);
  StorageServer& server = tier.server(0);
  HeapProbe probe;
  for (int i = 0; i < kCalls; ++i) {
    const std::vector<BlobPtr> blobs = server.MultiGet(keys);
    EXPECT_EQ(blobs.size(), keys.size());
  }
  return static_cast<double>(probe.allocs()) / kCalls;
}

// Allocations per fill-in StorageServer::MultiGet: 100 calls over the same
// 128 keys into one reused result vector, after one warm-up call.
double AllocsPerFillInMultiGet() {
  constexpr int kCalls = 100;
  const Fixture& f = SharedFixture();
  StorageTier tier(4);
  tier.LoadGraph(f.graph);
  const std::vector<NodeId> keys = ServerZeroKeys(tier, f.graph);
  StorageServer& server = tier.server(0);
  std::vector<BlobPtr> values;
  server.MultiGet(keys, &values);
  HeapProbe probe;
  for (int i = 0; i < kCalls; ++i) {
    server.MultiGet(keys, &values);
    EXPECT_EQ(values.size(), keys.size());
  }
  return static_cast<double>(probe.allocs()) / kCalls;
}

// Allocations per ReadServerOf + StartMultiGet + Execute on a warmed
// reader: a repartitioned, replicated 4-server tier with 3 readers, every
// other partition replicated once; reader 1 reads 2000 seeded batches of 1
// to 16 keys, grouped per server, through one reused handle. An unmeasured
// pass of the same batches warms the handle's vectors first.
double AllocsPerReusedMultiGet() {
  const Fixture& f = SharedFixture();
  StorageTier tier(4);
  tier.set_num_readers(3);
  tier.EnableRepartitioning(8);
  tier.EnableReplication();
  tier.LoadGraph(f.graph);
  const PartitionMap& map = *tier.partition_map();
  for (uint32_t q = 0; q < map.num_partitions(); q += 2) {
    tier.AddReplica(q, (map.owner(q) + 1) % 4);
  }
  std::vector<std::vector<NodeId>> batches(2000);
  Rng rng(23);
  for (std::vector<NodeId>& batch : batches) {
    batch.resize(1 + rng.NextBounded(16));
    for (NodeId& u : batch) {
      u = static_cast<NodeId>(rng.NextBounded(f.graph.num_nodes()));
    }
  }
  MultiGetHandle handle;
  std::vector<std::pair<uint32_t, uint32_t>> picks;  // (server, partition)
  std::vector<NodeId> keys;
  std::vector<uint32_t> partitions;
  uint64_t opened = 0;
  auto pass = [&] {
    for (const std::vector<NodeId>& batch : batches) {
      picks.clear();
      for (const NodeId u : batch) {
        uint32_t partition = 0;
        picks.emplace_back(tier.ReadServerOf(u, /*reader=*/1, &partition), partition);
      }
      for (uint32_t server = 0; server < 4; ++server) {
        keys.clear();
        partitions.clear();
        for (size_t k = 0; k < batch.size(); ++k) {
          if (picks[k].first == server) {
            keys.push_back(batch[k]);
            partitions.push_back(picks[k].second);
          }
        }
        if (keys.empty()) {
          continue;
        }
        tier.StartMultiGet(server, keys, partitions, /*reader=*/1, &handle);
        handle.Execute();
        ++opened;
      }
    }
  };
  pass();
  const uint64_t warm = opened;
  HeapProbe probe;
  pass();
  return static_cast<double>(probe.allocs()) / static_cast<double>(opened - warm);
}

// An edge mutation decodes each touched adjacency half, copies and edits
// it, and re-encodes it into a fresh shared blob (11.7 allocs/mutation).
TEST_F(WorkBudgetTest, ApplyMutation) {
  const double allocs = AllocsPerMutation();
  std::printf("[ work     ] %-16s %8.1f allocs/mutation\n", "apply mutation", allocs);
  EXPECT_LE(allocs, 13.0);
}

// A multiget allocates its result vector once and hands out the stored
// blobs by shared pointer (1.0 allocs/call); filling a reused vector
// allocates nothing (0.0).
TEST_F(WorkBudgetTest, StorageServerMultiGet) {
  const double allocs = AllocsPerMultiGet();
  std::printf("[ work     ] %-16s %8.1f allocs/call\n", "multiget x128", allocs);
  EXPECT_LE(allocs, 1.1);
  const double fill_in = AllocsPerFillInMultiGet();
  std::printf("[ work     ] %-16s %8.1f allocs/call\n", "fill-in x128", fill_in);
  EXPECT_EQ(fill_in, 0.0);
}

// A warmed reader's read path allocates nothing: ReadServerOf counts in
// the reader's shard, StartMultiGet records the partitions ReadServerOf
// handed back and reopens the handle in place, and Execute fills the
// handle's value vector (0.0 allocs/batch; a fresh handle and key vector
// per batch took 2.0).
TEST_F(WorkBudgetTest, ReusedHandleMultiGet) {
  const double allocs = AllocsPerReusedMultiGet();
  std::printf("[ work     ] %-16s %8.1f allocs/batch\n", "reused handle", allocs);
  EXPECT_EQ(allocs, 0.0);
}

// Allocations per RoutingStrategy::Route: 20000 hotspot query nodes routed
// over the default 7 processors of a small web-graph environment, with
// queue lengths that change every decision so the load term is live. The
// strategy (and the landmark index or embedding it reads) is built before
// counting starts: only the per-query decision is measured.
double AllocsPerRoute(RoutingSchemeKind scheme) {
  constexpr size_t kRoutes = 20000;
  static ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.02, /*seed=*/29);
  RunOptions options;
  options.scheme = scheme;
  const std::vector<Query> queries = env.HotspotWorkload(
      options.hotspot_radius, options.hops, options.num_hotspots,
      options.queries_per_hotspot);
  std::unique_ptr<RoutingStrategy> strategy = env.MakeStrategy(options);
  std::vector<uint32_t> lengths(options.processors, 0);
  const RouterContext ctx{options.processors, lengths};
  HeapProbe probe;
  for (size_t i = 0; i < kRoutes; ++i) {
    const uint32_t p = strategy->Route(queries[i % queries.size()].node, ctx);
    EXPECT_LT(p, options.processors);
    lengths[p] = (lengths[p] + 1) % 5;
  }
  return static_cast<double>(probe.allocs()) / kRoutes;
}

// A route decision reads the query node's landmark distances or
// coordinates and the queue lengths it is handed, and updates at most the
// Embed EMA in place: no scheme allocates (0.0 allocs/route each).
TEST_F(WorkBudgetTest, RouteDecision) {
  for (const RoutingSchemeKind scheme :
       {RoutingSchemeKind::kNextReady, RoutingSchemeKind::kHash,
        RoutingSchemeKind::kLandmark, RoutingSchemeKind::kEmbed}) {
    const std::string name = "route " + RoutingSchemeKindName(scheme);
    const double allocs = AllocsPerRoute(scheme);
    std::printf("[ work     ] %-16s %8.1f allocs/route\n", name.c_str(), allocs);
    EXPECT_EQ(allocs, 0.0) << name;
  }
}

}  // namespace
}  // namespace grouting
