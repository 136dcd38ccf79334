// Simplex Downhill (Nelder-Mead) derivative-free minimiser — the exact
// algorithm the paper uses for graph embedding ("could be approximately
// solved by many off-the-shelf techniques, e.g., the Simplex Downhill
// algorithm that we apply in this work").
//
// Header-only template so the per-node objective (millions of calls during
// embedding) inlines. The simplex lives in one flat (d+1) x d row-major
// array, and each iteration ranks it with one linear scan (RankSimplex)
// under the stable-sort rule below instead of sorting an index array.

#ifndef GROUTING_SRC_EMBED_NELDER_MEAD_H_
#define GROUTING_SRC_EMBED_NELDER_MEAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/util/check.h"

namespace grouting {

struct NelderMeadOptions {
  int max_evals = 400;
  // Converged when the simplex's best-worst objective spread drops below
  // tol * (|f_best| + epsilon).
  double tolerance = 1e-4;
  // Initial simplex step per coordinate.
  double initial_step = 0.5;
  // Standard coefficients: reflection, expansion, contraction, shrink.
  double alpha = 1.0;
  double gamma = 2.0;
  double rho = 0.5;
  double sigma = 0.5;
};

struct SimplexRank {
  size_t best = 0;
  size_t worst = 0;
  size_t second_worst = 0;
};

// Ranks simplex values fv (at least two) the way a stable ascending sort of
// their indices would: best = first minimum, worst = last maximum,
// second_worst = last maximum among the others. Ties therefore go to the
// lower index for best and to the higher index for worst.
inline SimplexRank RankSimplex(std::span<const double> fv) {
  GROUTING_DCHECK(fv.size() >= 2);
  SimplexRank r;
  for (size_t i = 1; i < fv.size(); ++i) {
    if (fv[i] < fv[r.best]) {
      r.best = i;
    }
    if (fv[i] >= fv[r.worst]) {
      r.worst = i;
    }
  }
  r.second_worst = r.worst == 0 ? 1 : 0;
  for (size_t i = r.second_worst + 1; i < fv.size(); ++i) {
    if (i != r.worst && fv[i] >= fv[r.second_worst]) {
      r.second_worst = i;
    }
  }
  return r;
}

// Minimises f over x (in place); returns the best objective value found.
// F: double(std::span<const double>).
template <typename F>
double NelderMead(F&& f, std::span<double> x, const NelderMeadOptions& opts = {}) {
  const size_t d = x.size();
  GROUTING_CHECK(d > 0);

  // Simplex of d+1 points, row i at pts[i * d].
  std::vector<double> pts((d + 1) * d);
  auto row = [&pts, d](size_t i) { return pts.data() + i * d; };
  for (size_t i = 0; i <= d; ++i) {
    std::copy(x.begin(), x.end(), row(i));
  }
  for (size_t i = 0; i < d; ++i) {
    row(i + 1)[i] += opts.initial_step;
  }
  std::vector<double> fv(d + 1);
  int evals = 0;
  auto eval = [&](const double* p) {
    ++evals;
    return f(std::span<const double>(p, d));
  };
  for (size_t i = 0; i <= d; ++i) {
    fv[i] = eval(row(i));
  }

  std::vector<double> centroid(d);
  std::vector<double> candidate(d);
  auto take_candidate = [&](size_t i, double value) {
    std::copy(candidate.begin(), candidate.end(), row(i));
    fv[i] = value;
  };

  while (evals < opts.max_evals) {
    const auto [best, worst, second_worst] = RankSimplex(fv);

    if (fv[worst] - fv[best] <= opts.tolerance * (std::abs(fv[best]) + 1e-12)) {
      break;
    }

    // Centroid of all points except the worst.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (size_t i = 0; i <= d; ++i) {
      if (i == worst) {
        continue;
      }
      const double* p = row(i);
      for (size_t k = 0; k < d; ++k) {
        centroid[k] += p[k];
      }
    }
    for (size_t k = 0; k < d; ++k) {
      centroid[k] /= static_cast<double>(d);
    }

    const double* worst_pt = row(worst);
    auto blend = [&](double coef) {
      for (size_t k = 0; k < d; ++k) {
        candidate[k] = centroid[k] + coef * (centroid[k] - worst_pt[k]);
      }
    };

    blend(opts.alpha);  // reflection
    const double f_reflect = eval(candidate.data());
    if (f_reflect < fv[best]) {
      blend(opts.alpha * opts.gamma);  // expansion
      const double f_expand = eval(candidate.data());
      if (f_expand < f_reflect) {
        take_candidate(worst, f_expand);
      } else {
        blend(opts.alpha);
        take_candidate(worst, f_reflect);
      }
    } else if (f_reflect < fv[second_worst]) {
      take_candidate(worst, f_reflect);
    } else {
      // Contraction (outside if the reflection improved on the worst).
      if (f_reflect < fv[worst]) {
        blend(opts.alpha * opts.rho);
      } else {
        blend(-opts.rho);
      }
      const double f_contract = eval(candidate.data());
      if (f_contract < std::min(f_reflect, fv[worst])) {
        take_candidate(worst, f_contract);
      } else {
        // Shrink towards the best point.
        const double* best_pt = row(best);
        for (size_t i = 0; i <= d; ++i) {
          if (i == best) {
            continue;
          }
          double* p = row(i);
          for (size_t k = 0; k < d; ++k) {
            p[k] = best_pt[k] + opts.sigma * (p[k] - best_pt[k]);
          }
          fv[i] = eval(p);
        }
      }
    }
  }

  size_t best = 0;
  for (size_t i = 1; i <= d; ++i) {
    if (fv[i] < fv[best]) {
      best = i;
    }
  }
  std::copy_n(row(best), d, x.begin());
  return fv[best];
}

}  // namespace grouting

#endif  // GROUTING_SRC_EMBED_NELDER_MEAD_H_
