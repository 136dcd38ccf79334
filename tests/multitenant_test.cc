// Multi-tenant graph federation: per-tenant admission control at the
// splitter, the open-loop Poisson workload generator, and tenant isolation
// end-to-end on both engines.
//
// The contracts under test:
//   * TenantAdmission is a per-tenant token bucket over schedule time —
//     in-quota arrivals are NEVER refused, over-quota arrivals are shed and
//     counted, tenants cannot consume each other's tokens,
//   * GenerateOpenLoopWorkload is deterministic in its config and emits a
//     strictly increasing merged arrival schedule,
//   * both engines compute the same admission plan from the same schedule
//     and answer every admitted query exactly once,
//   * a tenant's answers are invariant to which keyspace slice it occupies
//     and to another tenant's Zipf storm, and with quotas on the victim's
//     response tail stays bounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/grouting.h"
#include "src/frontend/admission.h"

namespace grouting {
namespace {

// --- admission control (token bucket) ----------------------------------

TEST(AdmissionTest, SpacedWithinQuotaNeverShed) {
  AdmissionConfig config;
  config.quota_qps = 1000.0;  // one token per 1000 µs
  config.burst = 1.0;
  TenantAdmission admission(config, /*num_tenants=*/1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(admission.Admit(0, 1000.0 * i + 0.5));
  }
  EXPECT_EQ(admission.admitted(0), 200u);
  EXPECT_EQ(admission.shed(0), 0u);
}

TEST(AdmissionTest, BurstAbsorbedThenShed) {
  AdmissionConfig config;
  config.quota_qps = 1000.0;
  config.burst = 4.0;
  TenantAdmission admission(config, /*num_tenants=*/1);
  uint64_t admitted = 0;
  for (int i = 0; i < 10; ++i) {
    if (admission.Admit(0, 0.0)) {
      ++admitted;
    }
  }
  // The bucket starts full: exactly `burst` simultaneous arrivals pass.
  EXPECT_EQ(admitted, 4u);
  EXPECT_EQ(admission.shed(0), 6u);
  // Tokens refill with schedule time: 2000 µs buys two more admits.
  EXPECT_TRUE(admission.Admit(0, 2000.0));
  EXPECT_TRUE(admission.Admit(0, 2000.0));
  EXPECT_FALSE(admission.Admit(0, 2000.0));
}

TEST(AdmissionTest, TenantsAreIndependent) {
  AdmissionConfig config;
  config.quota_qps = 1000.0;
  config.burst = 2.0;
  TenantAdmission admission(config, /*num_tenants=*/2);
  // Tenant 0 storms at t=0 and exhausts its own bucket...
  for (int i = 0; i < 50; ++i) {
    admission.Admit(0, 0.0);
  }
  EXPECT_EQ(admission.admitted(0), 2u);
  EXPECT_EQ(admission.shed(0), 48u);
  // ...while tenant 1's spaced arrivals are untouched by the storm.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(admission.Admit(1, 1000.0 * i));
  }
  EXPECT_EQ(admission.shed(1), 0u);
}

TEST(AdmissionTest, DisabledQuotaAdmitsEverything) {
  AdmissionConfig config;
  config.quota_qps = 0.0;  // <= 0 disables
  TenantAdmission admission(config, /*num_tenants=*/1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(admission.Admit(0, 0.0));
  }
  EXPECT_EQ(admission.admitted(0), 1000u);
  EXPECT_EQ(admission.shed(0), 0u);
}

// --- open-loop generator ------------------------------------------------

TEST(OpenLoopTest, GenerationIsDeterministic) {
  const Graph g = MakeDataset(DatasetId::kWebGraphLike, /*scale=*/0.05, /*seed=*/7);
  OpenLoopConfig config;
  config.num_tenants = 4;
  config.num_arrivals = 2000;
  config.seed = 99;
  const auto a = GenerateOpenLoopWorkload(g, config);
  const auto b = GenerateOpenLoopWorkload(g, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrive_us, b[i].arrive_us) << "arrival " << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << "arrival " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "arrival " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "arrival " << i;
    EXPECT_EQ(a[i].id, b[i].id) << "arrival " << i;
  }
}

TEST(OpenLoopTest, ScheduleIsStrictlyIncreasingAndInRange) {
  const Graph g = MakeDataset(DatasetId::kWebGraphLike, /*scale=*/0.05, /*seed=*/7);
  OpenLoopConfig config;
  config.num_tenants = 4;
  config.num_arrivals = 4000;
  config.sessions_per_tenant = 1000000;  // millions of lightweight sessions
  const auto queries = GenerateOpenLoopWorkload(g, config);
  ASSERT_EQ(queries.size(), config.num_arrivals);
  double prev = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_GT(queries[i].arrive_us, prev) << "arrival " << i;
    prev = queries[i].arrive_us;
    EXPECT_LT(queries[i].tenant, config.num_tenants) << "arrival " << i;
    EXPECT_LT(queries[i].node, g.num_nodes()) << "arrival " << i;
    EXPECT_EQ(queries[i].id, i);
  }
  // Every tenant shows up in a 4000-arrival stream at the default skew.
  std::vector<uint64_t> per_tenant(config.num_tenants, 0);
  for (const Query& q : queries) {
    ++per_tenant[q.tenant];
  }
  for (uint32_t t = 0; t < config.num_tenants; ++t) {
    EXPECT_GT(per_tenant[t], 0u) << "tenant " << t;
  }
}

TEST(OpenLoopTest, TenantRateSharesAreNormalizedAndMonotone) {
  for (const double skew : {0.0, 0.6, 1.2}) {
    const auto shares = TenantRateShares(8, skew);
    ASSERT_EQ(shares.size(), 8u);
    double sum = 0.0;
    for (size_t i = 0; i < shares.size(); ++i) {
      EXPECT_GT(shares[i], 0.0);
      if (i > 0) {
        EXPECT_LE(shares[i], shares[i - 1]) << "skew " << skew;
      }
      sum += shares[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "skew " << skew;
  }
  // skew 0 is uniform.
  for (const double share : TenantRateShares(4, 0.0)) {
    EXPECT_NEAR(share, 0.25, 1e-9);
  }
}

// --- end-to-end federation ----------------------------------------------

class MultiTenantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new ExperimentEnv(DatasetId::kWebGraphLike, /*scale=*/0.1, /*seed=*/23);
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static RunOptions SmallRun(uint32_t tenants) {
    RunOptions opts;
    opts.scheme = RoutingSchemeKind::kEmbed;
    opts.processors = 3;
    opts.storage_servers = 2;
    opts.num_landmarks = 24;
    opts.min_separation = 2;
    opts.dimensions = 6;
    opts.num_tenants = tenants;
    return opts;
  }

  static std::vector<Query> OpenLoop(uint32_t tenants, size_t arrivals,
                                     double rate_qps, double skew, uint64_t seed) {
    OpenLoopConfig config;
    config.num_tenants = tenants;
    config.num_arrivals = arrivals;
    config.arrival_rate_qps = rate_qps;
    config.tenant_skew = skew;
    config.seed = seed;
    return GenerateOpenLoopWorkload(env_->graph(), config);
  }

  static std::vector<AnsweredQuery> SortedAnswers(const ClusterEngine& engine) {
    std::vector<AnsweredQuery> answers = engine.answers();
    std::sort(answers.begin(), answers.end(),
              [](const AnsweredQuery& a, const AnsweredQuery& b) {
                return a.query_id < b.query_id;
              });
    return answers;
  }

  static void ExpectSameAnswers(const std::vector<AnsweredQuery>& a,
                                const std::vector<AnsweredQuery>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].query_id, b[i].query_id) << "answer " << i;
      EXPECT_EQ(a[i].result.aggregate, b[i].result.aggregate)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.walk_end, b[i].result.walk_end)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.reachable, b[i].result.reachable)
          << "query " << a[i].query_id;
      EXPECT_EQ(a[i].result.distance, b[i].result.distance)
          << "query " << a[i].query_id;
    }
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* MultiTenantTest::env_ = nullptr;

TEST_F(MultiTenantTest, CrossEngineParityWithQuotas) {
  // Both engines must compute the SAME admission plan from the schedule and
  // answer every admitted query exactly once — shedding included.
  const auto queries = OpenLoop(/*tenants=*/4, /*arrivals=*/3000,
                                /*rate_qps=*/50000.0, /*skew=*/1.0, /*seed=*/5);
  RunOptions opts = SmallRun(4);
  opts.admission.quota_qps = 18000.0;
  opts.admission.burst = 64.0;
  const ClusterConfig config = env_->MakeClusterConfig(opts);

  auto sim = MakeClusterEngine(EngineKind::kSimulated, env_->graph(), config,
                               env_->MakeStrategy(opts));
  auto threaded = MakeClusterEngine(EngineKind::kThreaded, env_->graph(), config,
                                    env_->MakeStrategy(opts));
  const ClusterMetrics sim_m = sim->Run(queries);
  const ClusterMetrics thr_m = threaded->Run(queries);

  // The Zipf-heavy tenant 0 is over quota; shedding happened and balanced.
  EXPECT_GT(sim_m.queries_shed, 0u);
  EXPECT_EQ(sim_m.queries + sim_m.queries_shed, queries.size());
  EXPECT_EQ(sim_m.queries, thr_m.queries);
  EXPECT_EQ(sim_m.queries_shed, thr_m.queries_shed);

  ASSERT_EQ(sim_m.per_tenant.size(), 4u);
  ASSERT_EQ(thr_m.per_tenant.size(), 4u);
  for (uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(sim_m.per_tenant[t].queries, thr_m.per_tenant[t].queries)
        << "tenant " << t;
    EXPECT_EQ(sim_m.per_tenant[t].shed, thr_m.per_tenant[t].shed) << "tenant " << t;
    if (t > 0) {
      // Only the heavy tenant exceeds its quota at this schedule.
      EXPECT_EQ(sim_m.per_tenant[t].shed, 0u) << "tenant " << t;
    }
  }
  ExpectSameAnswers(SortedAnswers(*sim), SortedAnswers(*threaded));
}

TEST_F(MultiTenantTest, AnswersInvariantToKeyspaceSlice) {
  // The same queries must answer identically whether they run as tenant 0
  // of a single-tenant cluster or as tenant 2 of a federated one — the
  // keyspace offset relocates storage keys, never results. The federated
  // answers must also match direct graph execution (the striped blobs
  // decode to the right adjacency, not just consistently-wrong ones).
  const auto base = OpenLoop(/*tenants=*/1, /*arrivals=*/600,
                             /*rate_qps=*/50000.0, /*skew=*/1.0, /*seed=*/11);
  std::vector<Query> as_tenant2 = base;
  for (Query& q : as_tenant2) {
    q.tenant = 2;
  }

  auto single = MakeClusterEngine(EngineKind::kSimulated, env_->graph(),
                                  env_->MakeClusterConfig(SmallRun(1)),
                                  env_->MakeStrategy(SmallRun(1)));
  auto federated = MakeClusterEngine(EngineKind::kSimulated, env_->graph(),
                                     env_->MakeClusterConfig(SmallRun(4)),
                                     env_->MakeStrategy(SmallRun(4)));
  single->Run(base);
  federated->Run(as_tenant2);
  const auto single_answers = SortedAnswers(*single);
  const auto federated_answers = SortedAnswers(*federated);
  ExpectSameAnswers(single_answers, federated_answers);

  DirectGraphSource reference(env_->graph());
  ASSERT_EQ(federated_answers.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    const QueryResult expect = ExecuteQuery(base[i], reference);
    const QueryResult& got = federated_answers[i].result;
    EXPECT_EQ(expect.aggregate, got.aggregate) << "query " << base[i].id;
    EXPECT_EQ(expect.walk_end, got.walk_end) << "query " << base[i].id;
    EXPECT_EQ(expect.reachable, got.reachable) << "query " << base[i].id;
    EXPECT_EQ(expect.distance, got.distance) << "query " << base[i].id;
  }
}

TEST_F(MultiTenantTest, QuotaShieldsVictimTenantFromStorm) {
  // Tenant 1 runs a paced stream; tenant 0 storms 10x harder into the same
  // cluster. With tenant 0 held to its quota, tenant 1 must lose nothing —
  // same answers as running alone — and its p99 must stay within a small
  // factor of its solo tail instead of inheriting the storm's queueing.
  constexpr uint64_t kVictimIdBase = 1u << 20;
  const auto victim = OpenLoop(/*tenants=*/1, /*arrivals=*/500,
                               /*rate_qps=*/5000.0, /*skew=*/1.0, /*seed=*/31);
  auto storm = OpenLoop(/*tenants=*/1, /*arrivals=*/5000,
                        /*rate_qps=*/50000.0, /*skew=*/1.0, /*seed=*/37);

  // Merge the two schedules by arrival time; victim ids move to a disjoint
  // range so its answers are identifiable in the merged run.
  std::vector<Query> merged = storm;
  for (const Query& q : victim) {
    Query v = q;
    v.tenant = 1;
    v.id += kVictimIdBase;
    merged.push_back(v);
  }
  std::sort(merged.begin(), merged.end(),
            [](const Query& a, const Query& b) { return a.arrive_us < b.arrive_us; });

  RunOptions solo_opts = SmallRun(2);
  auto solo = MakeClusterEngine(EngineKind::kSimulated, env_->graph(),
                                env_->MakeClusterConfig(solo_opts),
                                env_->MakeStrategy(solo_opts));
  std::vector<Query> victim_as_tenant1 = victim;
  for (Query& q : victim_as_tenant1) {
    q.tenant = 1;
    q.id += kVictimIdBase;
  }
  const ClusterMetrics solo_m = solo->Run(victim_as_tenant1);

  RunOptions storm_opts = SmallRun(2);
  storm_opts.admission.quota_qps = 8000.0;
  storm_opts.admission.burst = 32.0;
  auto stormed = MakeClusterEngine(EngineKind::kSimulated, env_->graph(),
                                   env_->MakeClusterConfig(storm_opts),
                                   env_->MakeStrategy(storm_opts));
  const ClusterMetrics storm_m = stormed->Run(merged);

  // The storm tenant was throttled; the victim was never shed.
  ASSERT_EQ(storm_m.per_tenant.size(), 2u);
  EXPECT_GT(storm_m.per_tenant[0].shed, 0u);
  EXPECT_EQ(storm_m.per_tenant[1].shed, 0u);
  EXPECT_EQ(storm_m.per_tenant[1].queries, victim.size());

  // Same answers for the victim as running alone.
  std::vector<AnsweredQuery> victim_answers;
  for (const AnsweredQuery& a : SortedAnswers(*stormed)) {
    if (a.query_id >= kVictimIdBase) {
      victim_answers.push_back(a);
    }
  }
  ExpectSameAnswers(SortedAnswers(*solo), victim_answers);

  // Bounded interference: the victim's p99 under the throttled storm stays
  // within a small factor of its solo p99 (virtual time, so deterministic).
  ASSERT_EQ(solo_m.per_tenant.size(), 2u);
  const double solo_p99 = solo_m.per_tenant[1].p99_response_ms;
  const double stormed_p99 = storm_m.per_tenant[1].p99_response_ms;
  ASSERT_GT(solo_p99, 0.0);
  EXPECT_LE(stormed_p99, 5.0 * solo_p99);
}

TEST_F(MultiTenantTest, SingleTenantMetricsCarryOneRow) {
  // A single-tenant run reports exactly one per-tenant row that mirrors the
  // run totals, and sheds nothing with quotas off.
  const auto queries = OpenLoop(/*tenants=*/1, /*arrivals=*/400,
                                /*rate_qps=*/50000.0, /*skew=*/1.0, /*seed=*/41);
  const ClusterMetrics m =
      env_->Run(EngineKind::kSimulated, SmallRun(1), queries);
  EXPECT_EQ(m.queries_shed, 0u);
  ASSERT_EQ(m.per_tenant.size(), 1u);
  EXPECT_EQ(m.per_tenant[0].queries, m.queries);
  EXPECT_EQ(m.per_tenant[0].shed, 0u);
  EXPECT_DOUBLE_EQ(m.per_tenant[0].p99_response_ms, m.p99_response_ms);
}

}  // namespace
}  // namespace grouting
