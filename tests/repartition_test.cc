// Storage-tier adaptive repartitioning (src/partition/repartition.h +
// StorageTier::MigratePartition): map identity with classic hash placement,
// the planner's threshold/hysteresis/cap/noise controller, the physical
// copy-flip-drain-delete executor, and — the part that earns the "exactly
// once" claim — migrations racing in-flight async multiget windows, both at
// the storage layer directly and through a full threaded-engine run checked
// against a no-repartitioning reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

Graph TestGraph(uint32_t nodes = 400, uint64_t seed = 7) {
  return GenerateBarabasiAlbert(nodes, /*edges_per_node=*/4, seed);
}

// Keys of [0, num_nodes) that server `s` holds (stats-free reads).
uint64_t KeysHeld(const StorageTier& tier, uint32_t s, NodeId num_nodes) {
  uint64_t held = 0;
  for (NodeId u = 0; u < num_nodes; ++u) {
    held += tier.server(s).PeekBlob(u) != nullptr ? 1 : 0;
  }
  return held;
}

TEST(PartitionMapTest, InitialLayoutMatchesHashPlacement) {
  // (h % cM) % M == h % M: before any migration the map must place every
  // key exactly where the tier's classic hash placement puts it, so
  // enabling repartitioning alone changes nothing.
  const uint32_t servers = 4;
  const uint32_t seed = 0x9747b28cu;
  const PartitionMap map(/*num_partitions=*/8 * servers, servers, seed);
  const HashPartitioner hasher(seed);
  for (NodeId u = 0; u < 50'000; ++u) {
    ASSERT_EQ(map.OwnerOf(u), hasher.Place(u, servers)) << "node " << u;
  }
}

TEST(PartitionMapTest, SetOwnerRebindsLookups) {
  PartitionMap map(8, 2, /*hash_seed=*/1);
  const uint32_t q = map.PartitionOf(123);
  const uint32_t old_owner = map.owner(q);
  const uint32_t new_owner = 1 - old_owner;
  map.SetOwner(q, new_owner);
  EXPECT_EQ(map.OwnerOf(123), new_owner);
}

TEST(PartitionMonitorTest, RollsWindowsIntoDecayedRates) {
  PartitionMonitor monitor(4);
  monitor.Record(2);
  monitor.Record(2);
  monitor.Record(0);
  monitor.RollWindow(/*decay=*/0.5);
  EXPECT_DOUBLE_EQ(monitor.rates()[2], 2.0);
  EXPECT_DOUBLE_EQ(monitor.rates()[0], 1.0);
  EXPECT_DOUBLE_EQ(monitor.rates()[1], 0.0);
  monitor.RollWindow(0.5);  // empty window: rates decay
  EXPECT_DOUBLE_EQ(monitor.rates()[2], 1.0);
  EXPECT_EQ(monitor.total_recorded(), 3u);
}

class PlannerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kServers = 4;
  static constexpr uint32_t kPartitionsPerServer = 4;

  PlannerTest() : map_(kServers * kPartitionsPerServer, kServers, /*seed=*/3) {}

  RepartitionConfig Config(double threshold, uint32_t cap = 4) {
    RepartitionConfig config;
    config.threshold = threshold;
    config.migration_cap = cap;
    config.partitions_per_server = kPartitionsPerServer;
    return config;
  }

  // Rates with all the load piled on server 0's partitions (initial owner
  // of partition q is q % kServers).
  std::vector<double> SkewedRates(double hot = 1000.0) {
    std::vector<double> rates(map_.num_partitions(), 1.0);
    for (uint32_t q = 0; q < map_.num_partitions(); q += kServers) {
      rates[q] = hot / kPartitionsPerServer;
    }
    return rates;
  }

  PartitionMap map_;
};

TEST_F(PlannerTest, BelowThresholdPlansNothing) {
  const auto plan =
      PlanRepartition(map_, SkewedRates(), Config(/*threshold=*/1e31));
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(
      PlanRepartition(map_, SkewedRates(), Config(/*threshold=*/0.0)).empty());
}

TEST_F(PlannerTest, MovesHotPartitionsOffTheHottestServer) {
  const auto plan = PlanRepartition(map_, SkewedRates(), Config(1.5));
  ASSERT_FALSE(plan.empty());
  for (const PartitionMigration& mig : plan) {
    EXPECT_EQ(mig.from, 0u) << "only server 0 is hot";
    EXPECT_NE(mig.to, 0u);
    EXPECT_EQ(mig.partition % kServers, 0u) << "victims live on server 0";
  }
}

TEST_F(PlannerTest, RespectsMigrationCap) {
  const auto plan = PlanRepartition(map_, SkewedRates(), Config(1.2, /*cap=*/2));
  EXPECT_LE(plan.size(), 2u);
}

TEST_F(PlannerTest, NoiseFloorSuppressesSmallSpreads) {
  // Loads differ, but the gap (3) is within noise_sigmas * sqrt(max) of a
  // hot server at 8: sampling jitter, not actionable skew.
  std::vector<double> rates(map_.num_partitions(), 0.0);
  rates[0] = 8.0;  // server 0
  rates[1] = 5.0;  // server 1
  EXPECT_TRUE(PlanRepartition(map_, rates, Config(1.1)).empty());
}

TEST_F(PlannerTest, DoesNotMutateTheMap) {
  const auto before = map_.OwnerSnapshot();
  PlanRepartition(map_, SkewedRates(), Config(1.2));
  EXPECT_EQ(map_.OwnerSnapshot(), before);
}

TEST(StorageLoadImbalanceTest, MaxOverMinClamped) {
  const std::vector<uint64_t> loads = {10, 40, 20, 20};
  EXPECT_DOUBLE_EQ(MaxMinLoadRatio(loads), 4.0);
  const std::vector<uint64_t> zero = {0, 5};
  EXPECT_DOUBLE_EQ(MaxMinLoadRatio(zero), 5.0);
  EXPECT_DOUBLE_EQ(MaxMinLoadRatio(std::vector<uint64_t>{7}), 1.0);
}

TEST(StorageTierRepartitionTest, EnableIsPlacementIdenticalUntilAMigration) {
  const Graph g = TestGraph();
  StorageTier plain(4);
  plain.LoadGraph(g);
  StorageTier repart(4);
  repart.EnableRepartitioning(/*partitions_per_server=*/8);
  repart.LoadGraph(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(plain.ServerOf(u), repart.ServerOf(u)) << "node " << u;
  }
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(KeysHeld(plain, s, g.num_nodes()), KeysHeld(repart, s, g.num_nodes()));
  }
}

TEST(StorageTierRepartitionTest, MigrateMovesKeysAndFlipsOwnership) {
  const Graph g = TestGraph();
  StorageTier tier(4);
  tier.EnableRepartitioning(8);
  tier.LoadGraph(g);

  const PartitionMap& map = *tier.partition_map();
  const uint32_t partition = map.PartitionOf(0);
  const uint32_t from = map.owner(partition);
  const uint32_t to = (from + 1) % 4;
  const uint64_t src_before = KeysHeld(tier, from, g.num_nodes());

  const auto result = tier.MigratePartition(partition, to);
  EXPECT_EQ(result.from, from);
  EXPECT_EQ(result.to, to);
  EXPECT_GT(result.keys_moved, 0u);
  EXPECT_GT(result.bytes_moved, 0u);
  EXPECT_EQ(KeysHeld(tier, from, g.num_nodes()), src_before - result.keys_moved);

  // Every key of the partition now resolves to (and lives on) the new
  // owner, and fetches still return the adjacency data.
  uint64_t checked = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (map.PartitionOf(u) != partition) {
      continue;
    }
    ASSERT_EQ(tier.ServerOf(u), to);
    ASSERT_NE(tier.server(to).PeekBlob(u), nullptr);
    ASSERT_EQ(tier.server(from).PeekBlob(u), nullptr);
    ASSERT_NE(tier.PeekCurrent(u), nullptr);
    ++checked;
  }
  EXPECT_EQ(checked, result.keys_moved);

  // Moving it back restores the original layout.
  const auto back = tier.MigratePartition(partition, from);
  EXPECT_EQ(back.keys_moved, result.keys_moved);
  EXPECT_EQ(KeysHeld(tier, from, g.num_nodes()), src_before);
}

TEST(StorageTierRepartitionTest, MonitorCountsEveryMultiGetKey) {
  const Graph g = TestGraph();
  StorageTier tier(2);
  tier.EnableRepartitioning(4);
  tier.LoadGraph(g);
  tier.StartMultiGet(tier.ServerOf(1), {1})->Execute();
  auto handle = tier.StartMultiGet(tier.ServerOf(2), {2, 3});
  handle->Execute();
  PartitionMonitor* monitor = tier.partition_monitor();
  monitor->RollWindow(0.0);
  EXPECT_EQ(monitor->total_recorded(), 3u);
}

// A migration must wait for multiget handles opened against the old owner:
// the handle below is opened BEFORE the migration starts, so the drain
// (step 3) blocks the source-side delete (step 4) until the handle has been
// serviced — its values must all be present.
TEST(StorageTierRepartitionTest, DrainHoldsDeleteForInflightHandles) {
  const Graph g = TestGraph();
  StorageTier tier(4);
  tier.EnableRepartitioning(8);
  tier.LoadGraph(g);
  const PartitionMap& map = *tier.partition_map();
  const uint32_t partition = map.PartitionOf(0);
  const uint32_t from = map.owner(partition);

  std::vector<NodeId> keys;
  for (NodeId u = 0; u < g.num_nodes() && keys.size() < 8; ++u) {
    if (map.PartitionOf(u) == partition) {
      keys.push_back(u);
    }
  }
  ASSERT_FALSE(keys.empty());

  auto handle = tier.StartMultiGet(from, keys);
  std::atomic<bool> migrated{false};
  std::thread migrator([&] {
    tier.MigratePartition(partition, (from + 1) % 4);
    migrated.store(true, std::memory_order_release);
  });
  // The migration cannot finish while the handle is open against the old
  // owner. (Give the drain a moment to make forward progress impossible to
  // miss; this is a liveness smoke, the ordering proof is the values below.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(migrated.load(std::memory_order_acquire));

  handle->Execute();
  migrator.join();
  const auto& values = handle->Wait();
  ASSERT_EQ(values.size(), keys.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NE(values[i], nullptr) << "key " << keys[i] << " lost in migration";
  }
}

// The one hole the drain cannot cover: a reader resolves ServerOf, the
// migration flips + deletes, and only then does the reader's StartMultiGet
// hit the old owner. The processor-side fallback re-resolves such misses
// through the tier's current map.
TEST(StorageTierRepartitionTest, ResolveMigratedMissesRefetchesMovedKeys) {
  const Graph g = TestGraph();
  StorageTier tier(4);
  tier.EnableRepartitioning(8);
  tier.LoadGraph(g);
  const PartitionMap& map = *tier.partition_map();
  const uint32_t partition = map.PartitionOf(0);
  const uint32_t from = map.owner(partition);

  std::vector<NodeId> keys;
  for (NodeId u = 0; u < g.num_nodes() && keys.size() < 6; ++u) {
    if (map.PartitionOf(u) == partition) {
      keys.push_back(u);
    }
  }
  ASSERT_FALSE(keys.empty());
  tier.MigratePartition(partition, (from + 1) % 4);

  // Stale read: the batch still targets the old owner.
  auto handle = tier.StartMultiGet(from, keys);
  handle->Execute();
  std::vector<BlobPtr> values = handle->Wait();
  for (const auto& v : values) {
    ASSERT_EQ(v, nullptr) << "old owner should have lost the partition";
  }
  const size_t resolved = ResolveMigratedMisses(&tier, keys, &values);
  EXPECT_EQ(resolved, keys.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NE(values[i], nullptr) << "key " << keys[i];
  }
}

// Model check at the processor layer: FetchBatch slams a fixed key set
// through CachedStorageSource (async window 2, executor-less) while another
// thread migrates the keys' partitions back and forth. Whatever the
// interleaving — batch formed before a flip, serviced after the delete —
// every batch must come back complete. Run under TSan in CI.
TEST(StorageTierRepartitionTest, MigrationStormNeverLosesAValue) {
  const Graph g = TestGraph(/*nodes=*/600);
  StorageTier tier(4);
  tier.EnableRepartitioning(8);
  tier.LoadGraph(g);
  const PartitionMap& map = *tier.partition_map();

  std::vector<NodeId> keys;
  for (NodeId u = 0; u < 64; ++u) {
    keys.push_back(u);
  }
  const uint32_t p0 = map.PartitionOf(keys[0]);
  const uint32_t p1 = map.PartitionOf(keys[1]);

  std::atomic<bool> stop{false};
  std::thread migrator([&] {
    uint32_t round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      tier.MigratePartition(p0, round % 4);
      tier.MigratePartition(p1, (round + 2) % 4);
      ++round;
    }
  });

  CachedStorageSource source(&tier, /*cache=*/nullptr, /*max_inflight_batches=*/2);
  for (int iter = 0; iter < 300; ++iter) {
    const auto values = source.FetchBatch(keys);
    ASSERT_EQ(values.size(), keys.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_NE(values[i], nullptr)
          << "iteration " << iter << " lost key " << keys[i];
    }
  }
  stop.store(true, std::memory_order_release);
  migrator.join();
}

// Randomized-interleaving fuzz for the stamp-stable retry: every seed draws
// a different schedule of "snapshot stale servers -> run 0-3 more
// migrations (deliberately including moves BACK to the snapshotted owner,
// the ABA case a naive owner-equality check would misread as 'nothing
// happened') -> issue the stale batches -> heal". Exactly-once must hold on
// every schedule: all values present and correct after ResolveMigratedMisses.
TEST(StorageTierRepartitionTest, SeededMigrationSchedulesHealExactlyOnce) {
  const Graph g = TestGraph();
  for (uint64_t seed = 0; seed < 32; ++seed) {
    StorageTier tier(4);
    tier.EnableRepartitioning(8);
    tier.LoadGraph(g);
    const PartitionMap& map = *tier.partition_map();
    std::mt19937_64 rng(seed);

    std::vector<NodeId> keys;
    for (int i = 0; i < 16; ++i) {
      keys.push_back(static_cast<NodeId>(rng() % g.num_nodes()));
    }

    for (int round = 0; round < 12; ++round) {
      // Snapshot the keys' servers, as a processor's miss pass would.
      std::vector<uint32_t> stale_server(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        stale_server[i] = tier.ServerOf(keys[i]);
      }

      // Race: migrations land between the snapshot and the batch issue.
      const int moves = static_cast<int>(rng() % 4);
      for (int m = 0; m < moves; ++m) {
        const uint32_t q = map.PartitionOf(keys[rng() % keys.size()]);
        // Half the moves target the key's snapshotted owner: the partition
        // leaves and comes back, so a stale batch can read a key that is
        // "home again" under a different stamp (ABA).
        const uint32_t to = (rng() % 2 == 0)
                                ? stale_server[rng() % keys.size()]
                                : static_cast<uint32_t>(rng() % 4);
        tier.MigratePartition(q, to);
      }

      // Issue the stale batches grouped by snapshotted server, then heal.
      std::vector<BlobPtr> values(keys.size());
      for (uint32_t s = 0; s < 4; ++s) {
        std::vector<NodeId> batch;
        std::vector<size_t> pos;
        for (size_t i = 0; i < keys.size(); ++i) {
          if (stale_server[i] == s) {
            batch.push_back(keys[i]);
            pos.push_back(i);
          }
        }
        if (batch.empty()) {
          continue;
        }
        auto handle = tier.StartMultiGet(s, batch);
        handle->Execute();
        const auto& got = handle->Wait();
        for (size_t i = 0; i < pos.size(); ++i) {
          values[pos[i]] = got[i];
        }
      }
      ResolveMigratedMisses(&tier, keys, &values);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(values[i], nullptr)
            << "seed " << seed << " round " << round << " key " << keys[i];
        ASSERT_EQ(DecodeAdjacency(*values[i])->out.size(), g.OutDegree(keys[i]))
            << "seed " << seed << " round " << round << " key " << keys[i];
      }
    }
  }
}

// The threaded variant: a pre-generated deterministic migration schedule
// (so a failing seed reproduces) races FetchBatch loops on real threads.
// Run under TSan in CI.
TEST(StorageTierRepartitionTest, SeededThreadedSchedulesNeverLoseAValue) {
  const Graph g = TestGraph(/*nodes=*/600);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    StorageTier tier(4);
    tier.EnableRepartitioning(8);
    tier.LoadGraph(g);
    const PartitionMap& map = *tier.partition_map();

    std::vector<NodeId> keys;
    for (NodeId u = 0; u < 48; ++u) {
      keys.push_back(u);
    }
    // The schedule cycles over the keys' partitions, including immediate
    // return moves (the threaded ABA shape).
    std::mt19937_64 rng(seed ^ 0xf00dULL);
    std::vector<std::pair<uint32_t, uint32_t>> schedule;
    for (int i = 0; i < 200; ++i) {
      const uint32_t q = map.PartitionOf(keys[rng() % keys.size()]);
      schedule.emplace_back(q, static_cast<uint32_t>(rng() % 4));
      if (rng() % 2 == 0) {
        schedule.emplace_back(q, map.owner(q));
      }
    }

    std::thread migrator([&] {
      for (const auto& [q, to] : schedule) {
        tier.MigratePartition(q, to);
      }
    });
    CachedStorageSource source(&tier, /*cache=*/nullptr,
                               /*max_inflight_batches=*/2);
    for (int iter = 0; iter < 150; ++iter) {
      const auto values = source.FetchBatch(keys);
      ASSERT_EQ(values.size(), keys.size());
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_NE(values[i], nullptr)
            << "seed " << seed << " iteration " << iter << " key " << keys[i];
      }
    }
    migrator.join();
  }
}

// End-to-end exactly-once: a threaded run with an async multiget window and
// aggressive repartitioning racing it must answer every query once, with
// answers identical to a deterministic no-repartitioning sim reference.
TEST(RepartitionEngineTest, ThreadedAsyncRunIsExactlyOnceUnderMigrations) {
  ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.1, /*seed=*/23);
  const auto queries = env.SkewedWorkload(/*sessions=*/32, /*queries=*/400,
                                          /*zipf_s=*/1.2);

  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kHash;
  opts.processors = 3;
  opts.storage_servers = 4;
  opts.cache_bytes = 64 << 10;  // small: keeps storage traffic (and the
                                // monitor signal) alive all run
  opts.max_inflight_batches = 4;
  opts.repartition_threshold = 1.05;  // migrate at the slightest skew
  opts.repartition_cap = 8;
  opts.partitions_per_server = 8;
  opts.gossip_period_us = 50.0;
  opts.arrival_gap_us = 2.0;

  RunOptions ref_opts = opts;
  ref_opts.repartition_threshold = 0.0;
  ref_opts.max_inflight_batches = 1;

  const Graph& g = env.graph();
  auto threaded = MakeClusterEngine(EngineKind::kThreaded, g,
                                    env.MakeClusterConfig(opts), env.MakeStrategy(opts));
  auto reference =
      MakeClusterEngine(EngineKind::kSimulated, g, env.MakeClusterConfig(ref_opts),
                        env.MakeStrategy(ref_opts));
  const ClusterMetrics m = threaded->Run(queries);
  reference->Run(queries);

  ASSERT_EQ(m.queries, queries.size());

  auto sorted = [](const ClusterEngine& e) {
    std::vector<AnsweredQuery> answers = e.answers();
    std::sort(answers.begin(), answers.end(),
              [](const AnsweredQuery& a, const AnsweredQuery& b) {
                return a.query_id < b.query_id;
              });
    return answers;
  };
  const auto got = sorted(*threaded);
  const auto want = sorted(*reference);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].query_id, want[i].query_id) << "answer " << i;
    EXPECT_EQ(got[i].result.aggregate, want[i].result.aggregate)
        << "query " << got[i].query_id;
    EXPECT_EQ(got[i].result.walk_end, want[i].result.walk_end)
        << "query " << got[i].query_id;
    EXPECT_EQ(got[i].result.reachable, want[i].result.reachable)
        << "query " << got[i].query_id;
    EXPECT_EQ(got[i].result.distance, want[i].result.distance)
        << "query " << got[i].query_id;
  }
}

// The acceptance shape, pinned deterministically on the simulated engine:
// under a Zipf-skewed session stream with a small cache, repartitioning on
// must migrate partitions and end the run with strictly lower per-server
// load imbalance than repartitioning off.
TEST(RepartitionEngineTest, SimRepartitioningLowersStorageImbalanceUnderSkew) {
  ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.1, /*seed=*/31);
  const auto queries = env.SkewedWorkload(/*sessions=*/24, /*queries=*/600,
                                          /*zipf_s=*/1.3);

  RunOptions opts;
  opts.scheme = RoutingSchemeKind::kEmbed;
  opts.processors = 3;
  opts.storage_servers = 4;
  opts.num_landmarks = 16;
  opts.min_separation = 2;
  opts.dimensions = 6;
  opts.cache_bytes = 64 << 10;
  opts.gossip_period_us = 100.0;
  opts.arrival_gap_us = 5.0;

  RunOptions on = opts;
  on.repartition_threshold = 1.15;
  on.repartition_cap = 4;
  on.partitions_per_server = 8;

  const ClusterMetrics off_m = env.Run(EngineKind::kSimulated, opts, queries);
  const ClusterMetrics on_m = env.Run(EngineKind::kSimulated, on, queries);

  EXPECT_EQ(off_m.partitions_migrated, 0u);
  EXPECT_DOUBLE_EQ(off_m.repartition_stall_us, 0.0);
  EXPECT_GT(on_m.partitions_migrated, 0u);
  EXPECT_GT(on_m.repartition_stall_us, 0.0);
  EXPECT_GT(off_m.storage_load_imbalance, 1.0);
  EXPECT_LT(on_m.storage_load_imbalance, off_m.storage_load_imbalance);
}

}  // namespace
}  // namespace grouting
