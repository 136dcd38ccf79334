// Per-layer microbenchmarks: the wall cost of each layer's public call on the
// machine it runs on, so the simulator's CostModel terms can be calibrated
// against measurements. Each benchmark reports items_per_second over the
// unit named in its name (a route decision, a queue handoff, a cache
// operation, a decoded edge, a multiget key, a visited node, a written
// blob); ns per unit is 1e9 / items_per_second.
//
//   bench_micro_layers                        # writes MICRO_layers.json
//   bench_micro_layers --benchmark_out=x.json # any google-benchmark flags
//
// Inputs come from a seeded webgraph-like stand-in at scale 0.05, chosen at
// run time so no work folds into constants.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/embed/embedding.h"
#include "src/landmark/landmark_index.h"
#include "src/proc/processor.h"
#include "src/query/query.h"
#include "src/routing/strategy.h"
#include "src/storage/storage_tier.h"
#include "src/util/mpmc_queue.h"
#include "src/util/rng.h"
#include "src/workload/datasets.h"
#include "src/workload/workload.h"

namespace grouting::e2e {
namespace {

constexpr uint64_t kSeed = 4242;
constexpr uint32_t kProcessors = 2;  // the end-to-end cluster's processor count

const Graph& TestGraph() {
  static const Graph g = MakeDataset(DatasetId::kWebGraphLike, 0.05, kSeed);
  return g;
}

const LandmarkSet& Landmarks() {
  static const LandmarkSet set = [] {
    LandmarkConfig config;
    config.seed = kSeed ^ 0x11;
    return LandmarkSet::Select(TestGraph(), config);
  }();
  return set;
}

std::vector<NodeId> RandomNodes(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> nodes(count);
  for (NodeId& u : nodes) {
    u = static_cast<NodeId>(rng.NextBounded(TestGraph().num_nodes()));
  }
  return nodes;
}

// ------------------------------------------------------------ routing ---

void RunRoute(benchmark::State& state, RoutingStrategy& strategy) {
  const std::vector<NodeId> nodes = RandomNodes(4096, kSeed);
  const std::vector<uint32_t> lengths(kProcessors, 0);
  RouterContext ctx;
  ctx.num_processors = kProcessors;
  ctx.queue_lengths = lengths;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Route(nodes[i], ctx));
    i = (i + 1) % nodes.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RouteHash(benchmark::State& state) {
  HashStrategy strategy;
  RunRoute(state, strategy);
}
BENCHMARK(BM_RouteHash);

void BM_RouteLandmark(benchmark::State& state) {
  static const LandmarkIndex index = LandmarkIndex::Build(Landmarks(), kProcessors);
  LandmarkStrategy strategy(&index, /*load_factor=*/20.0);
  RunRoute(state, strategy);
}
BENCHMARK(BM_RouteLandmark);

// Arg: embedding dimensions.
void BM_RouteEmbed(benchmark::State& state) {
  EmbedConfig config;
  config.dimensions = static_cast<size_t>(state.range(0));
  config.seed = kSeed ^ 0x22;
  const GraphEmbedding embedding = GraphEmbedding::Build(Landmarks(), config);
  EmbedStrategy strategy(&embedding, /*alpha=*/0.5, /*load_factor=*/20.0, kProcessors);
  RunRoute(state, strategy);
}
BENCHMARK(BM_RouteEmbed)->Arg(2)->Arg(10);

// ------------------------------------------------------------ runtime ---

void BM_MpmcQueuePushPop(benchmark::State& state) {
  MpmcQueue<Query> queue;
  Query q;
  q.node = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    queue.Push(q);
    benchmark::DoNotOptimize(queue.TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcQueuePushPop)->Arg(7);

// -------------------------------------------------------------- cache ---

std::vector<AdjacencyPtr> DecodedEntries(size_t count) {
  std::vector<AdjacencyPtr> entries;
  for (const NodeId u : RandomNodes(count, kSeed + 1)) {
    entries.push_back(DecodeAdjacency(EncodeAdjacency(TestGraph(), u)));
  }
  return entries;
}

// Arg: 0 = LRU, 1 = LFU. A hit on a resident key.
void BM_CacheGetHit(benchmark::State& state) {
  const CachePolicy policy = state.range(0) == 0 ? CachePolicy::kLru : CachePolicy::kLfu;
  const std::vector<AdjacencyPtr> entries = DecodedEntries(4096);
  NodeCache<CachedAdjacency> cache(1ULL << 30, policy);
  for (size_t i = 0; i < entries.size(); ++i) {
    cache.Put(static_cast<NodeId>(i), CachedAdjacency{entries[i], nullptr, 0},
              entries[i]->SerializedBytes());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Get(static_cast<NodeId>(i)));
    i = (i + 1) % entries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheGetHit)->Arg(0)->Arg(1);

// Arg: 0 = LRU, 1 = LFU. An insert of a new key into a full cache, which
// evicts one entry to make room.
void BM_CachePutEvict(benchmark::State& state) {
  const CachePolicy policy = state.range(0) == 0 ? CachePolicy::kLru : CachePolicy::kLfu;
  const std::vector<AdjacencyPtr> entries = DecodedEntries(4096);
  constexpr uint64_t kBytes = 64;  // uniform charge: exactly one eviction per put
  NodeCache<CachedAdjacency> cache(1024 * kBytes, policy);
  NodeId key = 0;
  for (auto _ : state) {
    const AdjacencyPtr& entry = entries[key % entries.size()];
    cache.Put(key++, CachedAdjacency{entry, nullptr, 0}, kBytes);
  }
  benchmark::DoNotOptimize(cache.entry_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachePutEvict)->Arg(0)->Arg(1);

// ------------------------------------------------------------- decode ---

// Arg: 0 = v1 raw, 1 = v2 delta_varint. Items are decoded edges.
void BM_DecodeAdjacency(benchmark::State& state) {
  const AdjacencyEncoding encoding =
      state.range(0) == 0 ? AdjacencyEncoding::kRaw : AdjacencyEncoding::kDeltaVarint;
  std::vector<std::vector<uint8_t>> blobs;
  uint64_t edges = 0;
  for (const NodeId u : RandomNodes(1024, kSeed + 2)) {
    blobs.push_back(EncodeAdjacency(TestGraph(), u, encoding));
    edges += TestGraph().OutNeighbors(u).size() + TestGraph().InNeighbors(u).size();
  }
  for (auto _ : state) {
    for (const auto& blob : blobs) {
      benchmark::DoNotOptimize(DecodeAdjacency(blob));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(edges) * state.iterations());
}
BENCHMARK(BM_DecodeAdjacency)->Arg(0)->Arg(1);

// ------------------------------------------------------------ storage ---

// Arg: keys per batch. Items are keys served (lookup + decode under the
// server mutex).
void BM_StorageServerMultiGet(benchmark::State& state) {
  const Graph& g = TestGraph();
  StorageServer server(0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    server.Load(u, EncodeAdjacency(g, u));
  }
  const std::vector<NodeId> nodes = RandomNodes(4096, kSeed + 3);
  const auto batch = static_cast<size_t>(state.range(0));
  size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.MultiGet(std::span<const NodeId>(nodes).subspan(offset, batch)));
    offset = (offset + batch) % (nodes.size() - batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(batch) * state.iterations());
}
BENCHMARK(BM_StorageServerMultiGet)->Arg(1)->Arg(16)->Arg(128);

// -------------------------------------------------------------- query ---

// Pre-decoded adjacency in memory: ExecuteQuery pays traversal compute only.
class DecodedSource : public NodeDataSource {
 public:
  explicit DecodedSource(const Graph& g) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      entries_.push_back(DecodeAdjacency(EncodeAdjacency(g, u)));
    }
  }
  std::vector<AdjacencyPtr> FetchBatch(std::span<const NodeId> nodes) override {
    std::vector<AdjacencyPtr> out;
    out.reserve(nodes.size());
    for (const NodeId u : nodes) {
      out.push_back(u < entries_.size() ? entries_[u] : nullptr);
      trace_.visited += out.back() != nullptr ? 1 : 0;
    }
    return out;
  }
  const FetchTrace& trace() const override { return trace_; }
  void ResetTrace() override { trace_.Clear(); }

 private:
  std::vector<AdjacencyPtr> entries_;
  FetchTrace trace_;
};

// Items are visited nodes over the paper's hotspot mix (r = 2, h = 2).
void BM_ExecuteQuery(benchmark::State& state) {
  DecodedSource source(TestGraph());
  WorkloadConfig config;
  config.num_hotspots = 50;
  config.seed = kSeed ^ 0x33;
  const std::vector<Query> queries = GenerateHotspotWorkload(TestGraph(), config);
  uint64_t visited = 0;
  size_t i = 0;
  for (auto _ : state) {
    source.ResetTrace();
    benchmark::DoNotOptimize(ExecuteQuery(queries[i], source));
    visited += source.trace().visited;
    i = (i + 1) % queries.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(visited));
}
BENCHMARK(BM_ExecuteQuery);

// ----------------------------------------------------------- mutation ---

// Alternating insert and delete of real edges. Items are blobs rewritten
// (both endpoints, owner plus replicas).
void BM_ApplyMutation(benchmark::State& state) {
  const Graph& g = TestGraph();
  StorageTier tier(4);
  tier.EnableMutations(g);
  tier.LoadGraph(g);
  std::vector<GraphMutation> edges;
  for (const NodeId u : RandomNodes(1024, kSeed + 4)) {
    if (!g.OutNeighbors(u).empty()) {
      GraphMutation m;
      m.u = u;
      m.v = g.OutNeighbors(u)[0].dst;
      m.label = g.OutNeighbors(u)[0].label;
      edges.push_back(m);
    }
  }
  uint64_t blobs = 0;
  size_t i = 0;
  bool remove = true;
  for (auto _ : state) {
    GraphMutation m = edges[i];
    m.kind = remove ? GraphMutation::Kind::kRemoveEdge : GraphMutation::Kind::kAddEdge;
    blobs += tier.ApplyMutation(m);
    if (++i == edges.size()) {
      i = 0;
      remove = !remove;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(blobs));
}
BENCHMARK(BM_ApplyMutation);

}  // namespace
}  // namespace grouting::e2e

// Writes MICRO_layers.json unless the caller names another output.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    has_out = has_out || std::string(argv[i]).rfind("--benchmark_out=", 0) == 0;
  }
  std::string out = "--benchmark_out=MICRO_layers.json";
  std::string format = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(format.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
