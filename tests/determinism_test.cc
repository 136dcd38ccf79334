// Seed-determinism regression: the simulated engine is the repo's reference
// implementation, so two runs of the SAME ClusterConfig + seed must produce
// bit-identical ClusterMetrics — every counter and every double, no
// tolerance — for every routing scheme and a spread of seeds, with the full
// adaptive stack (repartitioning + hot-partition replication + async
// fetch + tracing + admission control) enabled. Anything nondeterministic
// snuck into the sim (wall-clock reads, RNG without a seeded stream, map
// iteration order, address-keyed containers) shows up here as a single
// flipped bit.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/grouting.h"

namespace grouting {
namespace {

constexpr RoutingSchemeKind kAllSchemes[] = {
    RoutingSchemeKind::kNoCache, RoutingSchemeKind::kNextReady,
    RoutingSchemeKind::kHash, RoutingSchemeKind::kLandmark,
    RoutingSchemeKind::kEmbed};

constexpr uint64_t kSeeds[] = {1, 7, 23, 31, 4242};

// Every ClusterMetrics field (ForEachMetricField), compared exactly —
// vectors and per-tenant rows included. Doubles use EXPECT_EQ on purpose:
// determinism means the same float ops in the same order, so even the last
// ulp must match.
void ExpectMetricsIdentical(const ClusterMetrics& a, const ClusterMetrics& b) {
  ForEachMetricField([&](const char* name, auto member) {
    EXPECT_EQ(a.*member, b.*member) << name;
  });
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalAcrossRuns) {
  for (const uint64_t seed : kSeeds) {
    ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.06, seed);
    const auto queries = env.SkewedWorkload(/*sessions=*/16, /*queries=*/150,
                                            /*zipf_s=*/1.3);
    for (const RoutingSchemeKind scheme : kAllSchemes) {
      RunOptions opts;
      opts.scheme = scheme;
      opts.processors = 3;
      opts.storage_servers = 4;
      opts.num_landmarks = 12;
      opts.min_separation = 2;
      opts.dimensions = 4;
      opts.cache_bytes = 32 << 10;
      opts.max_inflight_batches = 2;
      opts.repartition_threshold = 1.1;
      opts.repartition_cap = 4;
      opts.partitions_per_server = 4;
      opts.replication_top_k = 2;
      opts.max_replicas_per_partition = 2;
      opts.replica_demote_threshold = 0.1;
      opts.gossip_period_us = 50.0;
      opts.arrival_gap_us = 2.0;
      opts.trace_sample_every_n = 3;
      // Half the 500k/s the 2 µs gap offers: past the 32-query burst,
      // admission control sheds about a third of the stream.
      opts.admission.quota_qps = 250000.0;

      const ClusterMetrics first = env.Run(EngineKind::kSimulated, opts, queries);
      const ClusterMetrics second = env.Run(EngineKind::kSimulated, opts, queries);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", scheme "
                   << RoutingSchemeKindName(scheme));
      EXPECT_GT(first.queries_shed, 0u);
      EXPECT_EQ(first.queries + first.queries_shed, queries.size());
      ExpectMetricsIdentical(first, second);
    }
  }
}

TEST(DeterminismTest, SimMetricsAreBitIdenticalUnderOnlineMutations) {
  // Same invariant with the online write path live: timed mutation events
  // interleave with queries, migrations, and replica churn in virtual time,
  // and index maintenance runs on the gossip cadence — two identical runs
  // must still agree on every counter and every double, last ulp included.
  for (const uint64_t seed : kSeeds) {
    ExperimentEnv env(DatasetId::kWebGraphLike, /*scale=*/0.06, seed);
    const auto queries = env.SkewedWorkload(/*sessions=*/16, /*queries=*/150,
                                            /*zipf_s=*/1.3);
    for (const RoutingSchemeKind scheme : kAllSchemes) {
      RunOptions opts;
      opts.scheme = scheme;
      opts.processors = 3;
      opts.storage_servers = 4;
      opts.num_landmarks = 12;
      opts.min_separation = 2;
      opts.dimensions = 4;
      opts.cache_bytes = 32 << 10;
      opts.max_inflight_batches = 2;
      opts.repartition_threshold = 1.1;
      opts.repartition_cap = 4;
      opts.partitions_per_server = 4;
      opts.replication_top_k = 2;
      opts.gossip_period_us = 50.0;
      opts.arrival_gap_us = 2.0;
      opts.enable_mutations = true;
      opts.num_mutations = 96;
      opts.mutation_gap_us = 20.0;
      opts.index_refresh_period_us = 100.0;

      const ClusterMetrics first = env.Run(EngineKind::kSimulated, opts, queries);
      const ClusterMetrics second = env.Run(EngineKind::kSimulated, opts, queries);
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", scheme "
                   << RoutingSchemeKindName(scheme));
      EXPECT_EQ(first.queries, queries.size());
      EXPECT_EQ(first.mutations_applied, 96u);
      ExpectMetricsIdentical(first, second);
    }
  }
}

}  // namespace
}  // namespace grouting
