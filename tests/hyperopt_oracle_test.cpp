// The replaced GP hyperparameter optimizer as a test-only oracle.
//
// GaussianProcess::fit runs box-constrained L-BFGS (math::lbfgs_box) from
// a warm start plus `restarts` uniform draws. The optimizer it replaced —
// projected Adam per start, then a Nelder-Mead polish — lives on in
// hyperopt_oracle.h, with Adam's own unit tests below. The corpus test runs
// both from the same three starts on the same negative_lml over Matérn-5/2
// ARD fit problems (dim 3/6/10 x n 5..60 x 8 seeds of synthetic data) and
// gates the new fit on the final negative LML and on evaluations spent.
//
// Why a share of problems and not each one: on small-n LML surfaces with
// several basins, any change of optimizer lands some problems in a
// different local optimum, better or worse. The gate is that the new fit is
// no worse on average (mean and median difference <= 0), worse by more than
// 1e-3 nats on at most a tenth of the problems, and uses at most a quarter
// of the oracle's evaluations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "gp/gp.h"
#include "gp/kernel.h"
#include "hyperopt_oracle.h"
#include "math/matrix.h"
#include "math/optimize.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace autodml::math {
namespace {

// ---- Adam -------------------------------------------------------------------------

TEST(Adam, MinimizesQuadraticWithGradient) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 2.0 * (x[0] - 4.0);
    g[1] = 2.0 * (x[1] + 2.0);
    return (x[0] - 4.0) * (x[0] - 4.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  AdamOptions opts;
  opts.max_iterations = 2000;
  opts.learning_rate = 0.1;
  const OptResult r = adam(f, Vec{0.0, 0.0}, opts);
  EXPECT_NEAR(r.x[0], 4.0, 1e-2);
  EXPECT_NEAR(r.x[1], -2.0, 1e-2);
}

TEST(Adam, KeepsBestSeenPoint) {
  // Pathological gradient that diverges after a good start; best-seen must
  // be retained even if later iterates get worse.
  int calls = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    ++calls;
    g[0] = calls < 3 ? 2.0 * x[0] : -100.0;  // then runs away
    return calls < 3 ? x[0] * x[0] : 1e6;
  };
  AdamOptions opts;
  opts.max_iterations = 20;
  const OptResult r = adam(f, Vec{1.0}, opts);
  EXPECT_LE(r.value, 1.0);
}

TEST(Adam, StopsOnSmallGradient) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 0.0;
    return x[0];
  };
  const OptResult r = adam(f, Vec{5.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Adam, ProjectsIterateOntoBounds) {
  // Unconstrained minimum at x=4, box [0,2]: the projected iterate must
  // converge to the boundary. Without projection the raw iterate would run
  // past 2 and keep collecting the stale boundary gradient while the
  // returned point stays clamped — the bug this option exists to fix.
  int out_of_bounds_evals = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    if (x[0] < 0.0 || x[0] > 2.0) ++out_of_bounds_evals;
    g[0] = 2.0 * (x[0] - 4.0);
    return (x[0] - 4.0) * (x[0] - 4.0);
  };
  AdamOptions opts;
  opts.max_iterations = 500;
  opts.learning_rate = 0.1;
  opts.lower_bounds = Vec{0.0};
  opts.upper_bounds = Vec{2.0};
  const OptResult r = adam(f, Vec{1.0}, opts);
  EXPECT_NEAR(r.x[0], 2.0, 1e-3);
  EXPECT_EQ(out_of_bounds_evals, 0);  // f only ever sees feasible points
}

TEST(Adam, ProjectsStartPointAndValidatesBoundSizes) {
  const auto f = [](std::span<const double> x, std::span<double> g) {
    g[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  AdamOptions opts;
  opts.lower_bounds = Vec{-1.0};
  opts.upper_bounds = Vec{1.0};
  opts.max_iterations = 0;
  const OptResult r = adam(f, Vec{50.0}, opts);  // start outside the box
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);

  AdamOptions bad;
  bad.lower_bounds = Vec{0.0, 0.0};  // wrong size
  bad.upper_bounds = Vec{1.0, 1.0};
  EXPECT_THROW(adam(f, Vec{0.5}, bad), std::invalid_argument);
}

TEST(Adam, NonFiniteEvaluationsDoNotPoisonMoments) {
  // Every third evaluation blows up (NaN value, garbage gradient). The old
  // implementation fed that gradient into the m/v moment estimates, turning
  // them — and every subsequent step — into NaN. Fixed: non-finite evals
  // contribute zero gradient, momentum decays, and the search still lands
  // near the minimum.
  int calls = 0;
  const auto f = [&](std::span<const double> x, std::span<double> g) {
    ++calls;
    if (calls % 3 == 0) {
      g[0] = std::numeric_limits<double>::quiet_NaN();
      return std::numeric_limits<double>::quiet_NaN();
    }
    g[0] = 2.0 * (x[0] - 1.0);
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  AdamOptions opts;
  opts.max_iterations = 1000;
  opts.learning_rate = 0.05;
  const OptResult r = adam(f, Vec{-2.0}, opts);
  ASSERT_TRUE(std::isfinite(r.value));
  ASSERT_TRUE(std::isfinite(r.x[0]));
  EXPECT_NEAR(r.x[0], 1.0, 0.1);
}

TEST(Adam, NonFiniteInitialValueReportsInfinityNotNan) {
  // When every evaluation is non-finite the run is a washout, but it must
  // report +inf — which loses cleanly against any finite restart — rather
  // than NaN, which the old best-seen comparison propagated to the caller.
  const auto f = [](std::span<const double>, std::span<double> g) {
    g[0] = std::numeric_limits<double>::quiet_NaN();
    return std::numeric_limits<double>::quiet_NaN();
  };
  AdamOptions opts;
  opts.max_iterations = 20;
  const OptResult r = adam(f, Vec{0.5}, opts);
  EXPECT_FALSE(std::isnan(r.value));
  EXPECT_EQ(r.value, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(r.x[0]));  // iterate never NaN-poisoned
}

}  // namespace
}  // namespace autodml::math

namespace autodml {
namespace {

struct FitProblem {
  math::Matrix x;
  math::Vec y;
};

/// Synthetic regression data on the unit cube: a few relevant dimensions
/// with random frequencies, the rest irrelevant, plus small noise — the
/// shape of an encoded configuration space's response.
FitProblem make_problem(std::size_t dim, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  math::Vec amp(dim), freq(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    amp[d] = rng.bernoulli(0.5) ? rng.uniform(0.5, 2.0) : 0.0;
    freq[d] = rng.uniform(1.0, 6.0);
  }
  FitProblem p{math::Matrix(n, dim), math::Vec(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      p.x(i, d) = rng.uniform();
      v += amp[d] * std::sin(freq[d] * p.x(i, d));
    }
    p.y[i] = v + 0.05 * rng.normal();
  }
  return p;
}

std::int64_t lml_evals() {
  return obs::MetricsRegistry::instance().counter("gp.lml_evals").value();
}

TEST(HyperoptOracle, LbfgsMatchesOracleOnFitCorpus) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.enable();
  registry.reset();
  std::vector<double> deltas;
  std::int64_t lbfgs_evals = 0, oracle_evals = 0;
  int worse = 0;
  std::printf("%4s %3s %12s %6s %11s %11s\n", "dim", "n", "mean delta",
              "worse", "lbfgs/fit", "oracle/fit");
  for (const std::size_t dim : {3u, 6u, 10u}) {
    for (const std::size_t n : {5u, 10u, 20u, 30u, 60u}) {
      double cell_delta = 0.0;
      int cell_worse = 0;
      std::int64_t cell_lbfgs = 0, cell_oracle = 0;
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const FitProblem p = make_problem(dim, n, 1000 * dim + 10 * n + seed);

        gp::GaussianProcess fitted(std::make_unique<gp::Matern52Ard>(dim));
        util::Rng rng(seed);
        const std::int64_t before = lml_evals();
        fitted.fit(p.x, p.y, rng);
        cell_lbfgs += lml_evals() - before;
        const double lbfgs_value = -fitted.log_marginal_likelihood();

        // Same starts: a fresh model's packed hyperparameters, then draws
        // from an identically seeded stream.
        gp::GaussianProcess oracle(std::make_unique<gp::Matern52Ard>(dim));
        oracle.refit(p.x, p.y);
        math::Vec warm = oracle.kernel().hyperparams();
        warm.push_back(std::log(gp::GpOptions{}.initial_noise));
        auto [lo, hi] = oracle.kernel().hyper_bounds();
        lo.push_back(std::log(gp::GpOptions{}.noise_lo));
        hi.push_back(std::log(gp::GpOptions{}.noise_hi));
        util::Rng oracle_rng(seed);
        const std::int64_t oracle_before = lml_evals();
        const test_oracle::OracleFit reference =
            test_oracle::oracle_fit(oracle, warm, lo, hi, {}, oracle_rng);
        cell_oracle += lml_evals() - oracle_before;

        const double delta = lbfgs_value - reference.value;
        ASSERT_TRUE(std::isfinite(delta)) << "dim=" << dim << " n=" << n;
        deltas.push_back(delta);
        cell_delta += delta;
        if (delta > 1e-3) ++cell_worse;
      }
      std::printf("%4zu %3zu %12.4g %6d %11.1f %11.1f\n", dim, n,
                  cell_delta / 8.0, cell_worse, cell_lbfgs / 8.0,
                  cell_oracle / 8.0);
      worse += cell_worse;
      lbfgs_evals += cell_lbfgs;
      oracle_evals += cell_oracle;
    }
  }
  registry.disable();

  const double mean =
      std::accumulate(deltas.begin(), deltas.end(), 0.0) / deltas.size();
  std::vector<double> sorted = deltas;
  std::sort(sorted.begin(), sorted.end());
  const double median =
      0.5 * (sorted[sorted.size() / 2 - 1] + sorted[sorted.size() / 2]);
  std::printf("mean delta %.4g, median %.4g, %d/%zu worse by > 1e-3; "
              "evaluations per fit %.1f (L-BFGS) vs %.1f (oracle)\n",
              mean, median, worse, deltas.size(),
              static_cast<double>(lbfgs_evals) / deltas.size(),
              static_cast<double>(oracle_evals) / deltas.size());
  EXPECT_LE(mean, 0.0);
  EXPECT_LE(median, 0.0);
  EXPECT_LE(worse, 12);
  EXPECT_LE(4 * lbfgs_evals, oracle_evals);
}

}  // namespace
}  // namespace autodml
