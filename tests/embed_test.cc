// Tests for the Nelder-Mead optimiser and the landmark-based graph
// embedding, including the paper's key properties: error decreases with
// dimensionality, and nearby nodes get nearby coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/embed/embedding.h"
#include "src/embed/nelder_mead.h"
#include "src/embed/relative_error.h"
#include "src/graph/generators.h"
#include "src/graph/traversal.h"
#include "src/util/rng.h"

namespace grouting {
namespace {

TEST(NelderMeadTest, MinimizesQuadratic1D) {
  std::vector<double> x{10.0};
  const double best = NelderMead(
      [](std::span<const double> p) { return (p[0] - 3.0) * (p[0] - 3.0); },
      std::span<double>(x));
  EXPECT_NEAR(x[0], 3.0, 1e-2);
  EXPECT_NEAR(best, 0.0, 1e-3);
}

TEST(NelderMeadTest, MinimizesSphere5D) {
  std::vector<double> x{4, -3, 2, -1, 5};
  NelderMeadOptions opts;
  opts.max_evals = 2000;
  opts.tolerance = 1e-10;
  NelderMead(
      [](std::span<const double> p) {
        double s = 0;
        for (double v : p) {
          s += v * v;
        }
        return s;
      },
      std::span<double>(x), opts);
  for (double v : x) {
    EXPECT_NEAR(v, 0.0, 0.05);
  }
}

TEST(NelderMeadTest, RosenbrockMakesProgress) {
  std::vector<double> x{-1.2, 1.0};
  NelderMeadOptions opts;
  opts.max_evals = 4000;
  opts.tolerance = 1e-12;
  const double best = NelderMead(
      [](std::span<const double> p) {
        const double a = 1.0 - p[0];
        const double b = p[1] - p[0] * p[0];
        return a * a + 100.0 * b * b;
      },
      std::span<double>(x), opts);
  EXPECT_LT(best, 0.5);  // from f(-1.2, 1) = 24.2
}

TEST(NelderMeadTest, RespectsEvalBudget) {
  int evals = 0;
  std::vector<double> x{1.0, 1.0};
  NelderMeadOptions opts;
  opts.max_evals = 50;
  NelderMead(
      [&evals](std::span<const double> p) {
        ++evals;
        return p[0] * p[0] + p[1] * p[1];
      },
      std::span<double>(x), opts);
  EXPECT_LE(evals, 50 + 3);  // simplex init may finish the last iteration
}

// RankSimplex must pick what a stable ascending sort of the indices puts
// first, last and second-to-last, ties included.
void ExpectRankMatchesStableSort(const std::vector<double>& fv) {
  std::vector<size_t> order(fv.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return fv[a] < fv[b]; });
  const SimplexRank rank = RankSimplex(fv);
  EXPECT_EQ(rank.best, order.front());
  EXPECT_EQ(rank.worst, order.back());
  EXPECT_EQ(rank.second_worst, order[order.size() - 2]);
}

TEST(NelderMeadTest, RankAllEqual) {
  ExpectRankMatchesStableSort(std::vector<double>(21, 1.5));
  ExpectRankMatchesStableSort(std::vector<double>(4, 0.0));
}

TEST(NelderMeadTest, RankDuplicatedMaximum) {
  ExpectRankMatchesStableSort({1.0, 5.0, 2.0, 5.0, 0.5});
  ExpectRankMatchesStableSort({5.0, 1.0, 5.0, 5.0});
}

TEST(NelderMeadTest, RankDuplicatedMinimum) {
  ExpectRankMatchesStableSort({3.0, 0.5, 2.0, 0.5, 4.0});
  ExpectRankMatchesStableSort({0.5, 0.5, 0.5, 4.0});
}

TEST(NelderMeadTest, RankWorstAtIndexZero) {
  ExpectRankMatchesStableSort({9.0, 1.0, 3.0, 2.0});
  ExpectRankMatchesStableSort({9.0, 1.0, 3.0, 3.0});
}

TEST(NelderMeadTest, RankOneDimension) {
  ExpectRankMatchesStableSort({1.0, 2.0});
  ExpectRankMatchesStableSort({2.0, 1.0});
  ExpectRankMatchesStableSort({1.0, 1.0});
}

// Seeded random simplices with heavy ties, across the sizes embedding
// uses (d = 1..30).
TEST(NelderMeadTest, RankMatchesStableSortOnRandomTies) {
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> fv(2 + rng.NextBounded(30));
    for (double& v : fv) {
      v = static_cast<double>(rng.NextBounded(4));
    }
    ExpectRankMatchesStableSort(fv);
  }
}

// ----------------------------------------------------------- Embedding --

EmbedConfig TestEmbedConfig(size_t dims) {
  EmbedConfig cfg;
  cfg.dimensions = dims;
  cfg.seed = 3;
  cfg.num_threads = 2;
  return cfg;
}

LandmarkConfig TestLandmarkConfig(size_t count) {
  LandmarkConfig cfg;
  cfg.num_landmarks = count;
  cfg.min_separation = 2;
  cfg.seed = 4;
  return cfg;
}

// The relative-error objective written the plain way: anchor by anchor
// over row-major coordinate rows, each squared distance summed over
// k = 0..D-1, unreachable anchors skipped, zero-distance anchors charged
// their absolute distance.
double RowMajorRelativeError(std::span<const double> x, std::span<const float> coords,
                             std::span<const uint16_t> dists) {
  const size_t dims = x.size();
  double total = 0.0;
  for (size_t a = 0; a < dists.size(); ++a) {
    if (dists[a] == kUnreachableU16) {
      continue;
    }
    double sq = 0.0;
    for (size_t k = 0; k < dims; ++k) {
      const double d = x[k] - static_cast<double>(coords[a * dims + k]);
      sq += d * d;
    }
    const double embed_dist = std::sqrt(sq);
    const double graph_dist = static_cast<double>(dists[a]);
    total += dists[a] == 0 ? embed_dist : std::abs(graph_dist - embed_dist) / graph_dist;
  }
  return total;
}

// The transposed, lane-per-anchor objective equals the row-major reference
// bit for bit, over seeded anchor blocks at D = 2, 10, 20 and 30 that mix
// reachable, unreachable and zero-distance anchors. Any change in the order
// the dimensions are summed in changes the last bits and fails here.
TEST(RelativeErrorObjectiveTest, MatchesRowMajorReferenceBitForBit) {
  Rng rng(31);
  for (const size_t dims : {2u, 10u, 20u, 30u}) {
    SCOPED_TRACE(dims);
    size_t unreachable = 0;
    size_t colocated = 0;
    for (int block = 0; block < 25; ++block) {
      const size_t anchors = 1 + rng.NextBounded(40);
      std::vector<float> coords(anchors * dims);
      for (float& c : coords) {
        c = static_cast<float>(10.0 * rng.NextDouble() - 5.0);
      }
      std::vector<uint16_t> dists(anchors);
      for (uint16_t& d : dists) {
        const double kind = rng.NextDouble();
        d = kind < 0.15   ? kUnreachableU16
            : kind < 0.25 ? uint16_t{0}
                          : static_cast<uint16_t>(1 + rng.NextBounded(12));
        unreachable += d == kUnreachableU16 ? 1 : 0;
        colocated += d == 0 ? 1 : 0;
      }
      internal::RelativeErrorObjective objective(coords, dists, dims);
      std::vector<double> x(dims);
      for (int eval = 0; eval < 20; ++eval) {
        for (double& xk : x) {
          xk = 12.0 * rng.NextDouble() - 6.0;
        }
        const double want = RowMajorRelativeError(x, coords, dists);
        const double got = objective(x);
        ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "block " << block << " eval " << eval << ": " << got << " vs " << want;
      }
    }
    EXPECT_GT(unreachable, 0u);
    EXPECT_GT(colocated, 0u);
  }
}

TEST(EmbeddingTest, AllConnectedNodesEmbedded) {
  Graph g = GenerateBarabasiAlbert(400, 3, 1);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(12));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(6));
  EXPECT_EQ(emb.dimensions(), 6u);
  EXPECT_EQ(emb.num_nodes(), g.num_nodes());
  size_t embedded = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    embedded += emb.IsEmbedded(u);
  }
  EXPECT_GT(embedded, g.num_nodes() * 95 / 100);
}

TEST(EmbeddingTest, DisconnectedNodeStaysUnembedded) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddNode();  // node 3, isolated
  Graph g = b.Build();
  LandmarkConfig lc = TestLandmarkConfig(2);
  auto lms = LandmarkSet::Select(g, lc);
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  EXPECT_FALSE(emb.IsEmbedded(3));
}

TEST(EmbeddingTest, GridGeometryRecovered) {
  // A 2D grid embeds almost isometrically: far grid nodes must be far in
  // the embedding, near nodes near.
  Graph g = GenerateGrid(15, 15);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(10));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  auto l2 = [&](NodeId a, NodeId b) {
    auto ca = emb.Coords(a);
    auto cb = emb.Coords(b);
    double s = 0;
    for (size_t k = 0; k < ca.size(); ++k) {
      s += (ca[k] - cb[k]) * (ca[k] - cb[k]);
    }
    return std::sqrt(s);
  };
  // corners: 0 and 224 are 28 hops apart; adjacent nodes 1 hop.
  EXPECT_GT(l2(0, 224), 5.0 * l2(0, 1));
}

TEST(EmbeddingTest, ErrorDecreasesWithDimensions) {
  // A preferential-attachment graph has intrinsic dimension well above 2,
  // so a 1-D embedding must be clearly worse than an 8-D one (a grid would
  // already be near-perfect at D=2, hiding the effect).
  Graph g = GenerateBarabasiAlbert(500, 4, 5);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(12));
  auto emb1 = GraphEmbedding::Build(lms, TestEmbedConfig(1));
  auto emb8 = GraphEmbedding::Build(lms, TestEmbedConfig(8));
  Rng ra(9);
  Rng rb(9);
  const double err1 = emb1.MeasureRelativeError(g, 150, 3, ra);
  const double err8 = emb8.MeasureRelativeError(g, 150, 3, rb);
  // Paper Fig 12a: relative error shrinks as dimensionality grows.
  EXPECT_LT(err8, err1);
}

TEST(EmbeddingTest, NearbyNodesGetNearbyCoordinates) {
  LocalityWebConfig web;
  web.grid_width = 8;
  web.grid_height = 8;
  web.community_size = 40;
  Graph g = GenerateLocalityWeb(web, 6);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(24));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(8));
  Rng rng(7);
  double near_sum = 0;
  double far_sum = 0;
  int samples = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    auto near = KHopNeighborhood(g, u, 1);
    if (near.empty() || !emb.IsEmbedded(u)) {
      continue;
    }
    const NodeId v = near[rng.NextBounded(near.size())];
    const auto far_node = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (!emb.IsEmbedded(v) || !emb.IsEmbedded(far_node)) {
      continue;
    }
    std::vector<double> cu(emb.Coords(u).begin(), emb.Coords(u).end());
    near_sum += emb.DistanceToPoint(v, cu);
    far_sum += emb.DistanceToPoint(far_node, cu);
    ++samples;
  }
  ASSERT_GT(samples, 20);
  EXPECT_LT(near_sum / samples, far_sum / samples);
}

TEST(EmbeddingTest, DeterministicInSeed) {
  Graph g = GenerateErdosRenyi(200, 800, 8);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(8));
  EmbedConfig cfg = TestEmbedConfig(5);
  cfg.num_threads = 1;
  auto a = GraphEmbedding::Build(lms, cfg);
  auto b = GraphEmbedding::Build(lms, cfg);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    if (!a.IsEmbedded(u)) {
      continue;
    }
    auto ca = a.Coords(u);
    auto cb = b.Coords(u);
    for (size_t k = 0; k < ca.size(); ++k) {
      EXPECT_FLOAT_EQ(ca[k], cb[k]);
    }
  }
}

TEST(EmbeddingTest, IncrementalAddMatchesRegion) {
  Graph g = GenerateGrid(12, 12);
  std::vector<uint8_t> allowed(g.num_nodes(), 1);
  const NodeId hidden = 77;  // interior node
  allowed[hidden] = 0;
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(10), &allowed);
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(4));
  EXPECT_FALSE(emb.IsEmbedded(hidden));
  ASSERT_TRUE(emb.AddNodeIncremental(g, hidden, lms));
  EXPECT_TRUE(emb.IsEmbedded(hidden));
  // The incrementally placed node should be closer to its grid neighbour
  // than to the far corner.
  std::vector<double> c(emb.Coords(hidden).begin(), emb.Coords(hidden).end());
  EXPECT_LT(emb.DistanceToPoint(hidden - 1, c), emb.DistanceToPoint(143, c));
}

TEST(EmbeddingTest, IncrementalAddFailsWithNoKnownNeighbors) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddNode();  // 3 isolated
  Graph g = b.Build();
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(2));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(3));
  EXPECT_FALSE(emb.AddNodeIncremental(g, 3, lms));
}

TEST(EmbeddingTest, MemoryBytesLinearInNodes) {
  Graph g = GenerateErdosRenyi(300, 900, 9);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(6));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(10));
  EXPECT_GE(emb.MemoryBytes(), 300u * 10u * sizeof(float));
}

TEST(EmbeddingTest, StatsPopulated) {
  Graph g = GenerateErdosRenyi(200, 600, 10);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(8));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(6));
  EXPECT_GT(emb.stats().landmark_embed_seconds, 0.0);
  EXPECT_GT(emb.stats().node_embed_seconds, 0.0);
  EXPECT_GE(emb.stats().mean_landmark_relative_error, 0.0);
  EXPECT_LT(emb.stats().mean_landmark_relative_error, 2.0);
}

// Property: for any dimensionality, embedding never produces NaN/Inf.
class EmbedDimsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EmbedDimsTest, CoordinatesFinite) {
  Graph g = GenerateBarabasiAlbert(150, 3, 11);
  auto lms = LandmarkSet::Select(g, TestLandmarkConfig(6));
  auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(GetParam()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!emb.IsEmbedded(u)) {
      continue;
    }
    for (float c : emb.Coords(u)) {
      EXPECT_TRUE(std::isfinite(c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, EmbedDimsTest, ::testing::Values(1, 2, 5, 10, 20));

// ----------------------------------------------------- Coordinate pin --

void HashBytes(uint64_t& h, const void* data, size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;  // FNV-1a 64
  }
}

void HashCoords(uint64_t& h, std::span<const float> coords) {
  HashBytes(h, coords.data(), coords.size_bytes());
}

void HashEmbedding(uint64_t& h, const Graph& g, const LandmarkSet& lms,
                   const GraphEmbedding& emb) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const uint8_t embedded = emb.IsEmbedded(u) ? 1 : 0;
    HashBytes(h, &embedded, 1);
    if (embedded != 0) {
      HashCoords(h, emb.Coords(u));
    }
  }
  for (size_t l = 0; l < lms.count(); ++l) {
    HashCoords(h, emb.Coords(lms.landmark_node(l)));
  }
}

// FNV-1a over the bit patterns of every coordinate two small seeded builds
// produce: each node's row (or an "unembedded" marker) and each landmark's
// row. The first build is a preferential-attachment graph plus one node
// placed afterwards by AddNodeIncremental; the second is a grid, whose
// integer geometry gives simplices with exactly tied objective values, so
// the simplex ranking's tie rule is pinned too. The pinned values were
// taken from the embedding kernel before its objective and simplex ranking
// were restructured for speed; any change that moves a coordinate by one
// ulp fails here.
uint64_t CoordinateHash(size_t dims) {
  uint64_t h = 0xcbf29ce484222325ULL;
  {
    Graph g = GenerateBarabasiAlbert(500, 3, 21);
    std::vector<uint8_t> allowed(g.num_nodes(), 1);
    const NodeId hidden = 321;
    allowed[hidden] = 0;
    auto lms = LandmarkSet::Select(g, TestLandmarkConfig(30), &allowed);
    auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(dims));
    HashEmbedding(h, g, lms, emb);
    EXPECT_FALSE(emb.IsEmbedded(hidden));
    EXPECT_TRUE(emb.AddNodeIncremental(g, hidden, lms));
    HashCoords(h, emb.Coords(hidden));
  }
  {
    Graph g = GenerateGrid(15, 15);
    auto lms = LandmarkSet::Select(g, TestLandmarkConfig(10));
    auto emb = GraphEmbedding::Build(lms, TestEmbedConfig(dims));
    HashEmbedding(h, g, lms, emb);
  }
  return h;
}

TEST(EmbeddingPinTest, CoordinateHashDims10) {
  EXPECT_EQ(CoordinateHash(10), 0x930b9f0ea7134cffULL);
}

// 21 simplex points: more than the 16 up to which libstdc++'s std::sort of
// the indices is a stable insertion sort. These builds meet no tie that an
// unstable sort would rank differently from the stable-rank scan.
TEST(EmbeddingPinTest, CoordinateHashDims20) {
  EXPECT_EQ(CoordinateHash(20), 0x39a7ad7cb39ef9c1ULL);
}

}  // namespace
}  // namespace grouting
