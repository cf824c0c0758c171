// Differential test for the blocked posterior prediction.
//
// GaussianProcess::predict_batch scores candidates in blocks of
// gp::kPredictBlock: one cross-covariance pass, one multi-right-hand-side
// forward substitution and one reused scratch per block. The per-point body
// it replaced — a k* vector, math::dot for the mean, solve_lower and a
// second dot for the variance, two allocations per call — lives on here,
// verbatim, as the oracle. The two must agree bit for bit (memcmp, not a
// tolerance) for both ARD kernels, training sets of 1 to 200 points, pools
// that contain training rows, and batch calls of 1, 7, 64 and the whole
// pool. propose_candidate must then pick the same winner at any thread
// count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/acquisition_optimizer.h"
#include "core/surrogate.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "synthetic_objective.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace autodml {
namespace {

/// A fitted GP's posterior state rebuilt from its public surface with the
/// operations GaussianProcess::refit and factorize run: the kernel as
/// fitted, the noise as last applied, standardized targets, jittered
/// Cholesky factor and alpha.
struct OracleState {
  std::unique_ptr<gp::Kernel> kernel;
  math::Matrix x;
  double y_mean = 0.0;
  double y_scale = 1.0;
  math::CholeskyFactor factor;
  math::Vec alpha;
};

OracleState oracle_state(const gp::GaussianProcess& model,
                         const math::Matrix& x, std::span<const double> y,
                         double initial_noise) {
  OracleState s;
  s.kernel = model.kernel().clone();
  s.x = x;
  s.y_mean = util::mean(y);
  const double sd = util::stddev(y);
  s.y_scale = sd > 1e-12 ? sd : 1.0;
  math::Vec targets_std(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    targets_std[i] = (y[i] - s.y_mean) / s.y_scale;
  }
  const double noise_var =
      model.fitted_hyperparams().empty()
          ? std::exp(std::log(initial_noise))
          : std::exp(model.fitted_hyperparams().back());
  const std::size_t n = y.size();
  math::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = s.kernel->eval(x.row(i), x.row(j));
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }
  s.factor = math::cholesky_with_jitter(gram);
  s.alpha = s.factor.solve(targets_std);
  return s;
}

/// The per-point GaussianProcess::predict body before blocked scoring.
gp::GpPrediction oracle_predict(const OracleState& s,
                                std::span<const double> x) {
  const std::size_t n = s.alpha.size();
  math::Vec k_star(n);
  for (std::size_t i = 0; i < n; ++i) {
    k_star[i] = s.kernel->eval(s.x.row(i), x);
  }

  const double mean_std = math::dot(k_star, s.alpha);
  const math::Vec v = s.factor.solve_lower(k_star);
  const double k_xx = s.kernel->eval(x, x);
  const double var_std = std::max(0.0, k_xx - math::dot(v, v));

  gp::GpPrediction out;
  out.mean = mean_std * s.y_scale + s.y_mean;
  out.variance = var_std * s.y_scale * s.y_scale;
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::unique_ptr<gp::Kernel> make_kernel(bool matern, std::size_t dim) {
  if (matern) return std::make_unique<gp::Matern52Ard>(dim);
  return std::make_unique<gp::SquaredExponentialArd>(dim);
}

constexpr std::size_t kDim = 4;

/// Pool of `m` uniform rows with every third training row spliced in, so
/// some candidates coincide with training points exactly.
math::Matrix make_pool(const math::Matrix& train, std::size_t m,
                       util::Rng& rng) {
  math::Matrix pool(m, kDim);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t d = 0; d < kDim; ++d) pool(r, d) = rng.uniform();
  }
  for (std::size_t i = 0, r = 5; i < train.rows() && r < m; i += 3, r += 11) {
    std::copy(train.row(i).begin(), train.row(i).end(), pool.row(r).begin());
  }
  return pool;
}

TEST(PredictOracle, BatchMatchesPerPointBodyBitForBit) {
  constexpr std::size_t kPool = 150;
  for (const bool matern : {true, false}) {
    for (const std::size_t n : {1u, 2u, 5u, 30u, 200u}) {
      util::Rng rng(1000 + n + (matern ? 1 : 0));
      math::Matrix x(n, kDim);
      std::vector<double> y(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d = 0; d < kDim; ++d) x(i, d) = rng.uniform();
        y[i] = std::sin(6.0 * x(i, 0)) + x(i, 1) * x(i, 2) +
               0.05 * rng.normal(0.0, 1.0);
      }
      gp::GpOptions options;
      gp::GaussianProcess model(make_kernel(matern, kDim), options);
      model.fit(x, y, rng);  // hyperopt runs from n = 3 on
      const OracleState oracle =
          oracle_state(model, x, y, options.initial_noise);
      const math::Matrix pool = make_pool(x, kPool, rng);

      std::vector<gp::GpPrediction> want(kPool);
      for (std::size_t r = 0; r < kPool; ++r) {
        want[r] = oracle_predict(oracle, pool.row(r));
      }
      for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                      gp::kPredictBlock, kPool}) {
        std::vector<gp::GpPrediction> got(kPool);
        for (std::size_t begin = 0; begin < kPool; begin += batch) {
          const std::size_t count = std::min(batch, kPool - begin);
          model.predict_batch(pool.data().subspan(begin * kDim, count * kDim),
                              std::span(got).subspan(begin, count));
        }
        for (std::size_t r = 0; r < kPool; ++r) {
          ASSERT_TRUE(same_bits(got[r].mean, want[r].mean))
              << "matern=" << matern << " n=" << n << " batch=" << batch
              << " row=" << r << ": " << got[r].mean << " vs " << want[r].mean;
          ASSERT_TRUE(same_bits(got[r].variance, want[r].variance))
              << "matern=" << matern << " n=" << n << " batch=" << batch
              << " row=" << r;
        }
      }
      // predict() is the one-row case.
      const gp::GpPrediction one = model.predict(pool.row(kPool - 1));
      EXPECT_TRUE(same_bits(one.mean, want[kPool - 1].mean));
      EXPECT_TRUE(same_bits(one.variance, want[kPool - 1].variance));
    }
  }
}

TEST(PredictOracle, EmptyBatchAndSizeMismatch) {
  math::Matrix x(3, kDim, 0.25);
  for (std::size_t d = 0; d < kDim; ++d) {
    x(1, d) = 0.5;
    x(2, d) = 0.75;
  }
  const std::vector<double> y = {1.0, 2.0, 0.5};
  gp::GaussianProcess model(make_kernel(true, kDim));
  util::Rng rng(3);
  model.fit(x, y, rng);
  EXPECT_NO_THROW(model.predict_batch({}, {}));
  std::vector<gp::GpPrediction> out(2);
  const std::vector<double> rows(kDim);
  EXPECT_THROW(model.predict_batch(rows, out), std::invalid_argument);
}

std::vector<core::Trial> synthetic_history(testing::SyntheticObjective& obj,
                                           int n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Trial> history;
  for (int i = 0; i < n; ++i) {
    core::Trial t;
    t.config = obj.space().sample_uniform(rng);
    t.outcome.feasible = t.config.get_double("x") <= 0.92;
    t.outcome.objective = obj.true_value(t.config);
    t.outcome.spent_seconds = t.outcome.objective;
    history.push_back(std::move(t));
  }
  return history;
}

TEST(PredictOracle, ScoreBatchMatchesScorePerConfig) {
  // Failures in the history bring in the feasibility GP, and EI-per-cost the
  // cost GP: all three models go through predict_batch.
  testing::SyntheticObjective objective;
  const std::vector<core::Trial> history =
      synthetic_history(objective, 40, 17);
  core::SurrogateModel model(objective.space(), {}, 5,
                             core::AcquisitionKind::kEiPerCost);
  model.update(history);
  ASSERT_TRUE(model.ready());
  const conf::ConfigSpace& space = objective.space();
  const std::size_t dim = space.encoded_dimension();
  util::Rng rng(8);
  std::vector<conf::Config> pool;
  for (int i = 0; i < 100; ++i) pool.push_back(space.sample_uniform(rng));
  pool.push_back(history[3].config);
  std::vector<double> rows(pool.size() * dim);
  for (std::size_t r = 0; r < pool.size(); ++r) {
    space.encode_into(pool[r], std::span(rows).subspan(r * dim, dim));
  }
  std::vector<core::SurrogateScore> batch(pool.size());
  model.score_batch(rows, batch);
  for (std::size_t r = 0; r < pool.size(); ++r) {
    const core::SurrogateScore one = model.score(pool[r]);
    EXPECT_TRUE(same_bits(batch[r].mean, one.mean)) << r;
    EXPECT_TRUE(same_bits(batch[r].variance, one.variance)) << r;
    EXPECT_TRUE(same_bits(batch[r].prob_feasible, one.prob_feasible)) << r;
    EXPECT_TRUE(same_bits(batch[r].log_cost, one.log_cost)) << r;
  }
}

TEST(PredictOracle, ProposalIsTheSameAtOneAndFourThreads) {
  testing::SyntheticObjective objective;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const std::vector<core::Trial> history =
        synthetic_history(objective, 30, seed);
    core::SurrogateModel model(objective.space(), {}, seed);
    model.update(history);
    ASSERT_TRUE(model.ready());
    util::ThreadPool one(1), four(4);
    std::vector<conf::Config> winners;
    for (util::ThreadPool* pool : {&one, &four}) {
      core::AcqOptimizerOptions options;
      options.pool = pool;
      util::Rng rng(seed * 7);
      const auto best = core::propose_candidate(
          model, core::AcquisitionKind::kLogEi, history, rng, options);
      ASSERT_TRUE(best.has_value());
      winners.push_back(*best);
    }
    EXPECT_TRUE(winners[0] == winners[1])
        << winners[0].to_string() << " vs " << winners[1].to_string();
  }
}

}  // namespace
}  // namespace autodml
