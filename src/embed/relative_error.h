// The relative-error objective every embedding placement minimises. An
// internal header: only embedding.cc and its tests include it.

#ifndef GROUTING_SRC_EMBED_RELATIVE_ERROR_H_
#define GROUTING_SRC_EMBED_RELATIVE_ERROR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/landmark/landmark.h"
#include "src/util/check.h"

namespace grouting {
namespace internal {

// Relative-error objective against a set of (coordinate row, graph distance)
// anchors. Unreachable anchors are dropped at construction; zero-distance
// anchors pin the point with an absolute penalty instead (relative error is
// undefined at 0).
//
// The reachable anchors' rows are copied into a transposed D x A block, so
// one evaluation sweeps each dimension k across all anchors and every
// anchor accumulates its squared distance in its own lane of `sq_`. Each
// lane still sums k = 0..D-1 in order, and sqrt, abs and division follow
// per anchor in anchor order, so the value is bit-identical to summing
// anchor by anchor over row-major coordinates.
class RelativeErrorObjective {
 public:
  // anchor_coords: A x dims row-major, one row per entry of anchor_dists.
  RelativeErrorObjective(std::span<const float> anchor_coords,
                         std::span<const uint16_t> anchor_dists, size_t dims) {
    dists_.reserve(anchor_dists.size());
    for (const uint16_t d : anchor_dists) {
      if (d != kUnreachableU16) {
        dists_.push_back(d);
      }
    }
    const size_t anchors = dists_.size();
    coords_t_.resize(dims * anchors);
    size_t i = 0;
    for (size_t a = 0; a < anchor_dists.size(); ++a) {
      if (anchor_dists[a] == kUnreachableU16) {
        continue;
      }
      const float* row = anchor_coords.data() + a * dims;
      for (size_t k = 0; k < dims; ++k) {
        coords_t_[k * anchors + i] = row[k];
      }
      ++i;
    }
    sq_.resize(anchors);
  }

  double operator()(std::span<const double> x) {
    const size_t anchors = dists_.size();
    GROUTING_DCHECK(x.size() * anchors == coords_t_.size());
    double* sq = sq_.data();
    std::fill_n(sq, anchors, 0.0);
    for (size_t k = 0; k < x.size(); ++k) {
      const double xk = x[k];
      const float* col = coords_t_.data() + k * anchors;
      for (size_t a = 0; a < anchors; ++a) {
        const double d = xk - static_cast<double>(col[a]);
        sq[a] += d * d;
      }
    }
    double total = 0.0;
    for (size_t a = 0; a < anchors; ++a) {
      const double embed_dist = std::sqrt(sq[a]);
      const uint16_t d = dists_[a];
      if (d == 0) {
        total += embed_dist;  // co-located anchor
      } else {
        total += std::abs(static_cast<double>(d) - embed_dist) / static_cast<double>(d);
      }
    }
    return total;
  }

 private:
  std::vector<uint16_t> dists_;  // reachable anchors' graph distances
  std::vector<float> coords_t_;  // dims x anchors: column a is anchor a's row
  std::vector<double> sq_;       // per-anchor squared-distance lanes
};

}  // namespace internal
}  // namespace grouting

#endif  // GROUTING_SRC_EMBED_RELATIVE_ERROR_H_
