#include "src/embed/embedding.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "src/embed/nelder_mead.h"
#include "src/embed/relative_error.h"
#include "src/graph/traversal.h"

namespace grouting {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double L2(std::span<const double> a, std::span<const float> b) {
  double sum = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - static_cast<double>(b[k]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

double L2f(std::span<const float> a, std::span<const float> b) {
  double sum = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    const double d = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace

GraphEmbedding GraphEmbedding::Build(const LandmarkSet& landmarks,
                                     const EmbedConfig& config) {
  GROUTING_CHECK(config.dimensions > 0);
  GraphEmbedding emb;
  emb.config_ = config;
  emb.dims_ = config.dimensions;
  const size_t L = landmarks.count();
  const size_t n = L > 0 ? landmarks.DistanceVector(0).size() : 0;
  emb.coords_.assign(n * emb.dims_, 0.0f);
  emb.embedded_.assign(n, 0);
  emb.landmark_coords_.assign(L * emb.dims_, 0.0f);
  if (L == 0 || n == 0) {
    return emb;
  }

  Rng rng(config.seed);
  const auto lm_start = std::chrono::steady_clock::now();

  // --- Phase 1: embed the landmarks against each other. ---
  // Incremental placement: each landmark is optimised against the ones
  // already placed, then a few cyclic refinement rounds polish all of them.
  std::vector<double> x(emb.dims_);
  std::vector<uint16_t> placed_dists;
  NelderMeadOptions lm_opts;
  lm_opts.max_evals = config.max_evals_per_node * 4;
  lm_opts.initial_step = 1.0;

  for (size_t l = 0; l < L; ++l) {
    if (l == 0) {
      std::fill(x.begin(), x.end(), 0.0);
    } else {
      // Start near the first placed landmark, offset by the graph distance
      // in a random direction.
      const double d0 = landmarks.LandmarkDistance(l, 0) == kUnreachableU16
                            ? 4.0
                            : landmarks.LandmarkDistance(l, 0);
      for (size_t k = 0; k < emb.dims_; ++k) {
        x[k] = static_cast<double>(emb.landmark_coords_[k]) +
               rng.NextGaussian() * std::max(1.0, d0) / std::sqrt(static_cast<double>(emb.dims_));
      }
      placed_dists.resize(l);
      for (size_t j = 0; j < l; ++j) {
        placed_dists[j] = landmarks.LandmarkDistance(l, j);
      }
      internal::RelativeErrorObjective obj(
          std::span<const float>(emb.landmark_coords_.data(), l * emb.dims_),
          placed_dists, emb.dims_);
      NelderMead(obj, std::span<double>(x), lm_opts);
    }
    for (size_t k = 0; k < emb.dims_; ++k) {
      emb.landmark_coords_[l * emb.dims_ + k] = static_cast<float>(x[k]);
    }
  }

  // Cyclic refinement: re-optimise each landmark against all others. The
  // objective skips unreachable anchors, so marking l itself unreachable
  // leaves exactly the others, in index order.
  std::vector<uint16_t> others_dists(L);
  for (int round = 0; round < config.landmark_refine_rounds; ++round) {
    for (size_t l = 0; l < L; ++l) {
      for (size_t j = 0; j < L; ++j) {
        others_dists[j] = j == l ? kUnreachableU16 : landmarks.LandmarkDistance(l, j);
      }
      for (size_t k = 0; k < emb.dims_; ++k) {
        x[k] = emb.landmark_coords_[l * emb.dims_ + k];
      }
      internal::RelativeErrorObjective obj(emb.landmark_coords_, others_dists, emb.dims_);
      NelderMead(obj, std::span<double>(x), lm_opts);
      for (size_t k = 0; k < emb.dims_; ++k) {
        emb.landmark_coords_[l * emb.dims_ + k] = static_cast<float>(x[k]);
      }
    }
  }

  // Landmark-pair relative error (diagnostic, also used by Fig 12a).
  double err_sum = 0.0;
  size_t err_count = 0;
  for (size_t a = 0; a < L; ++a) {
    for (size_t b = a + 1; b < L; ++b) {
      const uint16_t d = landmarks.LandmarkDistance(a, b);
      if (d == kUnreachableU16 || d == 0) {
        continue;
      }
      const double de = L2f({emb.landmark_coords_.data() + a * emb.dims_, emb.dims_},
                            {emb.landmark_coords_.data() + b * emb.dims_, emb.dims_});
      err_sum += std::abs(static_cast<double>(d) - de) / static_cast<double>(d);
      ++err_count;
    }
  }
  emb.stats_.mean_landmark_relative_error =
      err_count > 0 ? err_sum / static_cast<double>(err_count) : 0.0;
  emb.stats_.landmark_embed_seconds = SecondsSince(lm_start);

  // --- Phase 2: embed every known node, in parallel. ---
  const auto node_start = std::chrono::steady_clock::now();
  size_t threads = config.num_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : config.num_threads;
  threads = std::min<size_t>(threads, 64);
  std::atomic<size_t> next{0};
  auto worker = [&emb, &landmarks, &next, n, L](const EmbedConfig& cfg) {
    std::vector<uint16_t> dists(L);
    while (true) {
      const size_t u = next.fetch_add(1, std::memory_order_relaxed);
      if (u >= n) {
        break;
      }
      if (!landmarks.IsKnown(static_cast<NodeId>(u))) {
        continue;
      }
      for (size_t l = 0; l < L; ++l) {
        dists[l] = landmarks.Distance(l, static_cast<NodeId>(u));
      }
      emb.EmbedNode(static_cast<NodeId>(u), landmarks, dists, cfg, cfg.seed);
    }
  };
  if (threads <= 1) {
    worker(config);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, config);
    }
    for (auto& t : pool) {
      t.join();
    }
  }
  emb.stats_.node_embed_seconds = SecondsSince(node_start);
  return emb;
}

void GraphEmbedding::EmbedNode(NodeId u, const LandmarkSet& landmarks,
                               std::span<const uint16_t> landmark_dists,
                               const EmbedConfig& config, uint64_t salt) {
  const size_t L = landmarks.count();
  // Pick the nearest `landmarks_per_node` reachable landmarks as anchors.
  std::vector<size_t> order;
  order.reserve(L);
  for (size_t l = 0; l < L; ++l) {
    if (landmark_dists[l] != kUnreachableU16) {
      order.push_back(l);
    }
  }
  if (order.empty()) {
    return;  // disconnected from every landmark: stays unembedded
  }
  const size_t keep = std::min(config.landmarks_per_node, order.size());
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](size_t a, size_t b) { return landmark_dists[a] < landmark_dists[b]; });
  order.resize(keep);

  // If the node IS a landmark, reuse its phase-1 coordinates.
  if (landmark_dists[order[0]] == 0) {
    const size_t l = order[0];
    if (landmarks.landmark_node(l) == u) {
      std::copy_n(landmark_coords_.data() + l * dims_, dims_,
                  coords_.data() + static_cast<size_t>(u) * dims_);
      embedded_[u] = 1;
      return;
    }
  }

  std::vector<float> anchor_coords(keep * dims_);
  std::vector<uint16_t> anchor_dists(keep);
  for (size_t i = 0; i < keep; ++i) {
    std::copy_n(landmark_coords_.data() + order[i] * dims_, dims_,
                anchor_coords.data() + i * dims_);
    anchor_dists[i] = landmark_dists[order[i]];
  }

  // Initial guess: inverse-distance-weighted anchor centroid. Nodes with
  // near-identical landmark-distance vectors (e.g. same community) start at
  // near-identical points and converge to near-identical coordinates —
  // exactly the locality the router needs. The tiny deterministic jitter
  // only breaks exact simplex degeneracy.
  Rng rng(salt ^ (0x9e3779b97f4a7c15ULL * (u + 1)));
  std::vector<double> x(dims_, 0.0);
  double weight_sum = 0.0;
  for (size_t i = 0; i < keep; ++i) {
    const double w = 1.0 / (1.0 + static_cast<double>(anchor_dists[i]));
    weight_sum += w;
    for (size_t k = 0; k < dims_; ++k) {
      x[k] += w * static_cast<double>(anchor_coords[i * dims_ + k]);
    }
  }
  const double scale = std::max<double>(1.0, anchor_dists[0]);
  for (size_t k = 0; k < dims_; ++k) {
    x[k] = x[k] / weight_sum + rng.NextGaussian() * 0.05;
  }

  internal::RelativeErrorObjective obj(anchor_coords, anchor_dists, dims_);
  NelderMeadOptions opts;
  opts.max_evals = config.max_evals_per_node;
  opts.initial_step = 0.25 * scale;
  NelderMead(obj, std::span<double>(x), opts);

  float* row = coords_.data() + static_cast<size_t>(u) * dims_;
  for (size_t k = 0; k < dims_; ++k) {
    row[k] = static_cast<float>(x[k]);
  }
  embedded_[u] = 1;
}

double GraphEmbedding::DistanceToPoint(NodeId u, std::span<const double> point) const {
  GROUTING_DCHECK(point.size() == dims_);
  return L2(point, Coords(u));
}

bool GraphEmbedding::AddNodeIncremental(const Graph& g, NodeId u, LandmarkSet& landmarks) {
  GROUTING_CHECK(u < num_nodes());
  const auto est = landmarks.EstimateDistances(g, u);
  const bool any_known =
      std::any_of(est.begin(), est.end(), [](uint16_t d) { return d != kUnreachableU16; });
  landmarks.Assimilate(u, est);
  if (!any_known) {
    return false;
  }
  EmbedNode(u, landmarks, est, config_, config_.seed);
  return true;
}

size_t GraphEmbedding::RefreshNodes(const Graph& g, std::span<const NodeId> nodes,
                                    LandmarkSet& landmarks) {
  size_t embedded = 0;
  for (const NodeId u : nodes) {
    if (u >= num_nodes() || IsEmbedded(u)) {
      continue;
    }
    if (AddNodeIncremental(g, u, landmarks)) {
      ++embedded;
    }
  }
  return embedded;
}

double GraphEmbedding::MeasureRelativeError(const Graph& g, size_t samples,
                                            int32_t radius, Rng& rng) const {
  if (num_nodes() == 0 || samples == 0) {
    return 0.0;
  }
  double total = 0.0;
  size_t valid = 0;
  size_t attempts = 0;
  while (valid < samples && attempts < samples * 20) {
    ++attempts;
    const auto u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (!IsEmbedded(u)) {
      continue;
    }
    const auto near = KHopNeighborhood(g, u, radius);
    if (near.empty()) {
      continue;
    }
    const NodeId v = near[rng.NextBounded(near.size())];
    if (v == u || !IsEmbedded(v)) {
      continue;
    }
    const int32_t d = HopDistance(g, u, v, radius + 1);
    if (d <= 0) {
      continue;
    }
    const double de = L2f(Coords(u), Coords(v));
    total += std::abs(static_cast<double>(d) - de) / static_cast<double>(d);
    ++valid;
  }
  return valid == 0 ? 0.0 : total / static_cast<double>(valid);
}

}  // namespace grouting
