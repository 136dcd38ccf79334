// Read-path micro-benchmark: the wall cost of the storage reads a
// processor makes for its cache misses, on a repartitioned, replicated
// 4-server tier. One iteration is one fetch of kFetchKeys keys, as
// CachedStorageSource issues it: ReadServerOf per key (partition hash, p2c
// pick, read-load and read-sequence counters), then per storage server one
// StartMultiGet (monitor records, drain slot) and Execute (server lock,
// lookups, blob refcounts) on a handle the thread reuses.
//
//   bench_read_path                      # every case, 1 and 2 threads
//   bench_read_path --benchmark_filter=OneHotKey
//
// Cases, each at 1 and 2 threads (wall time, so ns per fetch is the
// "Time" column and a second thread that contends shows up there):
//   SharedReader  every thread reads as reader 0, the shared default, so
//                 two threads write the same counter lines;
//   OwnReader     thread t reads as reader t + 1, as threaded processor t
//                 does, so the counters share nothing;
//   OneHotKey     own readers, every key is the same one: the two threads
//                 still share the key's blob (its refcount) and the
//                 servers' locks.
//
// The numbers depend on the machine and on what else runs on it; nothing
// gates them.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/storage/storage_tier.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

constexpr uint32_t kServers = 4;
constexpr uint32_t kReaders = 3;  // reader 0 plus one per benchmark thread
constexpr size_t kFetchKeys = 4;
constexpr size_t kKeysPerThread = 4096;
constexpr NodeId kNodes = 20000;

// Built once, shared by every case and thread: 4 servers, 8 partitions per
// server, every other partition with one replica.
StorageTier& Tier() {
  static const Graph graph = GenerateBarabasiAlbert(kNodes, 8, 4242);
  static const std::unique_ptr<StorageTier> tier = [] {
    auto t = std::make_unique<StorageTier>(kServers);
    t->set_num_readers(kReaders);
    t->EnableRepartitioning(8);
    t->EnableReplication();
    t->LoadGraph(graph);
    const PartitionMap& map = *t->partition_map();
    for (uint32_t q = 0; q < map.num_partitions(); q += 2) {
      t->AddReplica(q, (map.owner(q) + 1) % kServers);
    }
    return t;
  }();
  return *tier;
}

// The lowest node of a replicated partition: the hot key, read from two
// servers by p2c.
NodeId HotKey(const StorageTier& tier) {
  const PartitionMap& map = *tier.partition_map();
  NodeId u = 0;
  while (map.replica_count(map.PartitionOf(u)) == 0) {
    ++u;
  }
  return u;
}

// One thread's read loop. `hot_key` makes every key the same one.
void RunReads(benchmark::State& state, uint32_t reader, bool hot_key) {
  StorageTier& tier = Tier();
  Rng rng(4242 + static_cast<uint64_t>(state.thread_index()));
  std::vector<NodeId> sequence(kKeysPerThread, HotKey(tier));
  if (!hot_key) {
    for (NodeId& u : sequence) {
      u = static_cast<NodeId>(rng.NextBounded(kNodes));
    }
  }
  MultiGetHandle handle;
  std::vector<std::pair<uint32_t, uint32_t>> picks(kFetchKeys);  // (server, partition)
  std::vector<NodeId> keys;
  std::vector<uint32_t> partitions;
  keys.reserve(kFetchKeys);
  partitions.reserve(kFetchKeys);
  size_t next = 0;
  for (auto _ : state) {
    const NodeId* fetch = &sequence[next];
    next = (next + kFetchKeys) % kKeysPerThread;
    for (size_t k = 0; k < kFetchKeys; ++k) {
      picks[k].first = tier.ReadServerOf(fetch[k], reader, &picks[k].second);
    }
    for (uint32_t server = 0; server < kServers; ++server) {
      keys.clear();
      partitions.clear();
      for (size_t k = 0; k < kFetchKeys; ++k) {
        if (picks[k].first == server) {
          keys.push_back(fetch[k]);
          partitions.push_back(picks[k].second);
        }
      }
      if (keys.empty()) {
        continue;
      }
      tier.StartMultiGet(server, keys, partitions, reader, &handle);
      handle.Execute();
      benchmark::DoNotOptimize(handle.Wait().data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(kFetchKeys) * state.iterations());
}

void BM_ReadPathSharedReader(benchmark::State& state) {
  RunReads(state, /*reader=*/0, /*hot_key=*/false);
}
BENCHMARK(BM_ReadPathSharedReader)->Threads(1)->Threads(2)->UseRealTime();

void BM_ReadPathOwnReader(benchmark::State& state) {
  RunReads(state, 1 + static_cast<uint32_t>(state.thread_index()), /*hot_key=*/false);
}
BENCHMARK(BM_ReadPathOwnReader)->Threads(1)->Threads(2)->UseRealTime();

void BM_ReadPathOneHotKey(benchmark::State& state) {
  RunReads(state, 1 + static_cast<uint32_t>(state.thread_index()), /*hot_key=*/true);
}
BENCHMARK(BM_ReadPathOneHotKey)->Threads(1)->Threads(2)->UseRealTime();

}  // namespace
}  // namespace grouting

BENCHMARK_MAIN();
