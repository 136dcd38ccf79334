// Landmark-based graph embedding into D-dimensional Euclidean space (paper
// Section 3.4.2, following Orion/Vivaldi):
//
//   1. landmarks are embedded first, minimising pairwise RELATIVE distance
//      error with Simplex Downhill (relative error favours nearby pairs,
//      which is what routing cares about),
//   2. every other node is embedded independently (and in parallel) against
//      its nearest landmarks' coordinates,
//   3. new nodes can be embedded incrementally from estimated landmark
//      distances without touching existing coordinates.
//
// Router storage is O(n*D) floats (Table 3).
//
// Each placement is one Nelder-Mead minimisation (nelder_mead.h) of a
// relative-error objective built once per minimisation. The objective keeps
// its reachable anchors transposed as a D x A float block, so an evaluation
// sweeps each dimension across all anchors and every anchor sums its squared
// distance in its own lane, over k = 0..D-1 in order; sqrt, abs and division
// then follow per anchor, in anchor order. Coordinates are bit-identical to
// summing anchor by anchor over row-major rows (tests/embed_test.cc pins a
// hash of them).

#ifndef GROUTING_SRC_EMBED_EMBEDDING_H_
#define GROUTING_SRC_EMBED_EMBEDDING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/landmark/landmark.h"
#include "src/util/rng.h"

namespace grouting {

struct EmbedConfig {
  size_t dimensions = 10;  // paper default (error saturates at ~10)
  // Nelder-Mead budget per node; landmarks get 4x this.
  int max_evals_per_node = 320;
  // Each node is optimised against its `landmarks_per_node` nearest
  // landmarks (all landmarks would be ~4x slower for <1% error gain).
  size_t landmarks_per_node = 24;
  // Cyclic refinement rounds over the landmark coordinates.
  int landmark_refine_rounds = 3;
  size_t num_threads = 0;  // 0 = hardware concurrency
  uint64_t seed = 11;
};

struct EmbeddingStats {
  double landmark_embed_seconds = 0.0;  // Table 2 column 2
  double node_embed_seconds = 0.0;      // Table 2 column 3 (total, all nodes)
  double mean_landmark_relative_error = 0.0;
};

class GraphEmbedding {
 public:
  // Embeds all nodes known to `landmarks`. Nodes with no known landmark
  // distances (outside the preprocessed subgraph) stay unembedded until
  // AddNodeIncremental.
  static GraphEmbedding Build(const LandmarkSet& landmarks, const EmbedConfig& config);

  size_t dimensions() const { return dims_; }
  size_t num_nodes() const { return embedded_.size(); }

  bool IsEmbedded(NodeId u) const { return embedded_[u] != 0; }

  std::span<const float> Coords(NodeId u) const {
    GROUTING_DCHECK(u < num_nodes());
    return {coords_.data() + static_cast<size_t>(u) * dims_, dims_};
  }

  // L2 distance between a node's coordinates and an arbitrary point.
  double DistanceToPoint(NodeId u, std::span<const double> point) const;

  // Embeds node u from landmark-distance estimates derived from already-
  // embedded neighbours (incremental insertion path). Returns false if no
  // neighbour was known.
  bool AddNodeIncremental(const Graph& g, NodeId u, LandmarkSet& landmarks);

  // Batch refresh for the engine's index-maintenance hook: embeds every
  // not-yet-embedded node of `nodes` incrementally from its neighbours'
  // estimates. Already-embedded nodes keep their coordinates — drift from
  // edge churn is reconciled by periodic offline recomputes, as in the
  // paper — so the pass stays cheap and stale-bounded. Returns how many
  // nodes were newly embedded.
  size_t RefreshNodes(const Graph& g, std::span<const NodeId> nodes,
                      LandmarkSet& landmarks);

  // Mean relative error |d_graph - d_embed| / d_graph over sampled node
  // pairs within `radius` hops of each other (Figure 12(a)'s metric).
  double MeasureRelativeError(const Graph& g, size_t samples, int32_t radius,
                              Rng& rng) const;

  uint64_t MemoryBytes() const { return coords_.size() * sizeof(float) + embedded_.size(); }
  const EmbeddingStats& stats() const { return stats_; }

 private:
  // Embeds one node against the given landmark coordinate rows; writes into
  // coords row u.
  void EmbedNode(NodeId u, const LandmarkSet& landmarks,
                 std::span<const uint16_t> landmark_dists, const EmbedConfig& config,
                 uint64_t salt);

  size_t dims_ = 0;
  std::vector<float> coords_;          // n x D row-major
  std::vector<float> landmark_coords_;  // L x D row-major
  std::vector<uint8_t> embedded_;
  EmbeddingStats stats_;
  EmbedConfig config_;
};

}  // namespace grouting

#endif  // GROUTING_SRC_EMBED_EMBEDDING_H_
