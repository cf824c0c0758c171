// The random-Fourier-feature backend and the surrogate layer around it:
// kernel approximation quality, seed-determinism, the bitwise
// append-equals-refit contract, backend auto-switching with its metrics,
// refit scheduling counters, and journal resume across a backend switch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/bo_tuner.h"
#include "core/surrogate.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "gp/rff.h"
#include "math/matrix.h"
#include "obs/metrics.h"
#include "synthetic_objective.h"
#include "util/rng.h"

namespace autodml {
namespace {

using core::BoOptions;
using core::BoTuner;
using core::SurrogateBackend;
using core::SurrogateModel;
using core::SurrogateOptions;
using core::Trial;
using core::TuningResult;
using testing::SyntheticObjective;

constexpr std::size_t kDim = 4;

// Smooth deterministic training set: y = sum of per-dimension sinusoids.
void make_data(std::size_t n, math::Matrix& x, std::vector<double>& y,
               std::uint64_t seed = 5) {
  util::Rng rng(seed);
  x = math::Matrix(n, kDim);
  y.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < kDim; ++d) {
      x(i, d) = rng.uniform(0.0, 1.0);
      y[i] += std::sin(3.0 * x(i, d) + static_cast<double>(d));
    }
  }
}

gp::RffOptions rff_options(int features) {
  gp::RffOptions options;
  options.num_features = features;
  options.gp.optimize_hyperparams = false;  // hold kernel defaults fixed
  return options;
}

TEST(Rff, FeatureDotProductsApproximateTheKernel) {
  math::Matrix x;
  std::vector<double> y;
  make_data(16, x, y);
  const gp::Matern52Ard reference(kDim);

  const auto max_kernel_error = [&](int m) {
    gp::RffRegressor model(std::make_unique<gp::Matern52Ard>(kDim),
                           rff_options(m), /*feature_seed=*/17);
    model.refit(x, y);
    double worst = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const math::Vec phi_i = model.features(x.row(i));
      for (std::size_t j = 0; j <= i; ++j) {
        const math::Vec phi_j = model.features(x.row(j));
        const double approx = math::dot(phi_i, phi_j);
        const double exact = reference.eval(x.row(i), x.row(j));
        worst = std::max(worst, std::abs(approx - exact));
      }
    }
    return worst;
  };

  // Monte-Carlo O(1/sqrt(m)) convergence: more features, better kernel.
  const double err_coarse = max_kernel_error(32);
  const double err_fine = max_kernel_error(2048);
  EXPECT_LT(err_fine, err_coarse);
  EXPECT_LT(err_fine, 0.08);
}

TEST(Rff, SameSeedGivesBitIdenticalModels) {
  math::Matrix x;
  std::vector<double> y;
  make_data(24, x, y);
  gp::RffRegressor a(std::make_unique<gp::Matern52Ard>(kDim),
                     rff_options(64), 99);
  gp::RffRegressor b(std::make_unique<gp::Matern52Ard>(kDim),
                     rff_options(64), 99);
  a.refit(x, y);
  b.refit(x, y);
  util::Rng probe_rng(3);
  for (int p = 0; p < 10; ++p) {
    math::Vec probe(kDim);
    for (auto& v : probe) v = probe_rng.uniform(0.0, 1.0);
    const gp::GpPrediction pa = a.predict(probe);
    const gp::GpPrediction pb = b.predict(probe);
    EXPECT_EQ(pa.mean, pb.mean);
    EXPECT_EQ(pa.variance, pb.variance);
  }
  EXPECT_EQ(a.log_marginal_likelihood(), b.log_marginal_likelihood());
}

TEST(Rff, DifferentSeedsDrawDifferentFeatures) {
  math::Matrix x;
  std::vector<double> y;
  make_data(24, x, y);
  gp::RffRegressor a(std::make_unique<gp::Matern52Ard>(kDim),
                     rff_options(64), 1);
  gp::RffRegressor b(std::make_unique<gp::Matern52Ard>(kDim),
                     rff_options(64), 2);
  a.refit(x, y);
  b.refit(x, y);
  EXPECT_NE(a.predict(x.row(0)).mean, b.predict(x.row(0)).mean);
}

TEST(Rff, AppendObservationMatchesRefitBitwise) {
  // The append path's feature-Gram update replays refit's summation order,
  // so growing a model one row at a time must land on exactly the model a
  // from-scratch refit on the full data produces — not merely close.
  math::Matrix full_x;
  std::vector<double> full_y;
  make_data(30, full_x, full_y);
  math::Matrix head_x(29, kDim);
  for (std::size_t i = 0; i < 29; ++i)
    for (std::size_t d = 0; d < kDim; ++d) head_x(i, d) = full_x(i, d);
  const std::vector<double> head_y(full_y.begin(), full_y.end() - 1);

  gp::RffRegressor grown(std::make_unique<gp::Matern52Ard>(kDim),
                         rff_options(64), 7);
  grown.refit(head_x, head_y);
  ASSERT_TRUE(grown.append_observation(full_x.row(29), full_y[29]));

  gp::RffRegressor direct(std::make_unique<gp::Matern52Ard>(kDim),
                          rff_options(64), 7);
  direct.refit(full_x, full_y);

  EXPECT_EQ(grown.num_points(), direct.num_points());
  util::Rng probe_rng(11);
  for (int p = 0; p < 10; ++p) {
    math::Vec probe(kDim);
    for (auto& v : probe) v = probe_rng.uniform(0.0, 1.0);
    const gp::GpPrediction pg = grown.predict(probe);
    const gp::GpPrediction pd = direct.predict(probe);
    EXPECT_EQ(pg.mean, pd.mean);
    EXPECT_EQ(pg.variance, pd.variance);
  }
  EXPECT_EQ(grown.log_marginal_likelihood(),
            direct.log_marginal_likelihood());
}

TEST(Rff, FitRecoversSmoothFunction) {
  math::Matrix x;
  std::vector<double> y;
  make_data(64, x, y);
  gp::RffOptions options;
  options.num_features = 256;
  gp::RffRegressor model(std::make_unique<gp::Matern52Ard>(kDim), options,
                         13);
  util::Rng rng(1);
  model.fit(x, y, rng);
  double sq_err = 0.0, sq_dev = 0.0, mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double err = model.predict(x.row(i)).mean - y[i];
    sq_err += err * err;
    sq_dev += (y[i] - mean) * (y[i] - mean);
  }
  // Training-set RMSE well under the target's own spread: the subset
  // hyperopt + feature solve actually fit the function.
  EXPECT_LT(std::sqrt(sq_err / static_cast<double>(x.rows())),
            0.5 * std::sqrt(sq_dev / static_cast<double>(x.rows())));
}

// ---- Surrogate-layer integration -----------------------------------------------

Trial make_trial(const SyntheticObjective& objective, util::Rng& rng) {
  Trial t;
  conf::Config c = objective.space().sample_uniform(rng);
  c.set_double("x", rng.uniform(0.0, 0.9));  // stay out of the crash region
  t.config = c;
  t.outcome.feasible = true;
  t.outcome.objective = objective.true_value(c);
  t.outcome.spent_seconds = t.outcome.objective;
  return t;
}

TEST(SurrogateRff, AutoBackendSwitchesAtThreshold) {
  obs::MetricsRegistry::instance().enable();
  obs::MetricsRegistry::instance().reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.backend = SurrogateBackend::kAuto;
  options.rff_threshold = 8;
  options.rff_features = 64;
  SurrogateModel model(objective.space(), options, 21);
  util::Rng rng(22);
  std::vector<Trial> trials;
  for (int i = 0; i < 6; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);
  EXPECT_STREQ(model.objective_backend(), "exact");
  while (trials.size() < 10) trials.push_back(make_trial(objective, rng));
  model.update(trials);
  EXPECT_STREQ(model.objective_backend(), "rff");
  EXPECT_GE(obs::MetricsRegistry::instance()
                .counter("surrogate.backend_switches")
                .value(),
            1);
  EXPECT_TRUE(model.ready());
  // Scores still flow through the new backend.
  const auto score = model.score(trials.front().config);
  EXPECT_TRUE(std::isfinite(score.mean));
  EXPECT_GT(score.variance, 0.0);
  obs::MetricsRegistry::instance().disable();
}

TEST(SurrogateRff, ExactBackendIgnoresThreshold) {
  SyntheticObjective objective;
  SurrogateOptions options;
  options.backend = SurrogateBackend::kExact;
  options.rff_threshold = 2;
  SurrogateModel model(objective.space(), options, 23);
  util::Rng rng(24);
  std::vector<Trial> trials;
  for (int i = 0; i < 8; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);
  EXPECT_STREQ(model.objective_backend(), "exact");
}

TEST(SurrogateRff, RefitSchedulingCountsSkipsAndRounds) {
  obs::MetricsRegistry::instance().enable();
  obs::MetricsRegistry::instance().reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 4;
  options.refit_nlml_degradation = 0.0;  // isolate the schedule
  options.backend = SurrogateBackend::kExact;
  SurrogateModel model(objective.space(), options, 31);
  util::Rng rng(32);
  std::vector<Trial> trials;
  for (int i = 0; i < 4; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);  // first fit: hyperopt, resets the counter
  for (int i = 0; i < 6; ++i) {
    trials.push_back(make_trial(objective, rng));
    model.update(trials);  // single-trial appends between scheduled rounds
  }
  auto& registry = obs::MetricsRegistry::instance();
  // 7 updates: #1 first fit, #5 scheduled (counter reaches 4), rest skip.
  EXPECT_EQ(registry.counter("surrogate.hyperopt_scheduled").value(), 2);
  EXPECT_EQ(registry.counter("surrogate.refit_skipped").value(), 5);
  EXPECT_EQ(registry.counter("surrogate.refit_evidence").value(), 0);
  obs::MetricsRegistry::instance().disable();
}

TEST(SurrogateRff, EvidenceTriggerForcesEarlyHyperopt) {
  obs::MetricsRegistry::instance().enable();
  obs::MetricsRegistry::instance().reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 1000;          // schedule would never fire again
  options.refit_nlml_degradation = 1e-9;  // hair trigger
  options.backend = SurrogateBackend::kExact;
  SurrogateModel model(objective.space(), options, 41);
  util::Rng rng(42);
  std::vector<Trial> trials;
  for (int i = 0; i < 5; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);  // hyperopt on first fit; baseline recorded
  // A batch of new observations the stale hyperparameters must explain
  // strictly worse than the data they were tuned on.
  for (int i = 0; i < 10; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);
  EXPECT_GE(obs::MetricsRegistry::instance()
                .counter("surrogate.refit_evidence")
                .value(),
            1);
  obs::MetricsRegistry::instance().disable();
}

// ---- Tuner-level determinism and resume ----------------------------------------

BoOptions tuner_options(std::uint64_t seed, int evals) {
  BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 6;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.max_iterations = 30;
  options.acq_optimizer.random_candidates = 256;
  return options;
}

TEST(SurrogateRff, BoTunerIsDeterministicOnTheRffBackend) {
  BoOptions options = tuner_options(51, 12);
  options.surrogate.backend = SurrogateBackend::kRff;
  options.surrogate.rff_features = 64;
  SyntheticObjective obj1, obj2;
  BoTuner t1(obj1, options);
  BoTuner t2(obj2, options);
  const TuningResult r1 = t1.tune();
  const TuningResult r2 = t2.tune();
  ASSERT_EQ(r1.trials.size(), r2.trials.size());
  for (std::size_t i = 0; i < r1.trials.size(); ++i) {
    EXPECT_TRUE(r1.trials[i].config == r2.trials[i].config) << i;
    EXPECT_DOUBLE_EQ(r1.trials[i].outcome.objective,
                     r2.trials[i].outcome.objective)
        << i;
  }
  EXPECT_TRUE(r1.best_config == r2.best_config);
}

TEST(SurrogateRff, JournalResumeReplaysAcrossABackendSwitch) {
  // A run whose surrogate switches exact -> RFF mid-session, interrupted
  // after the switch and resumed from the journal, must land on the same
  // trials as the uninterrupted run: replay rebuilds the surrogate through
  // the same backend transitions.
  const int full_budget = 12;
  const int crash_after = 9;
  const auto configure = [](BoOptions options) {
    options.surrogate.backend = SurrogateBackend::kAuto;
    options.surrogate.rff_threshold = 6;
    options.surrogate.rff_features = 64;
    return options;
  };

  SyntheticObjective reference;
  BoTuner full(reference, configure(tuner_options(61, full_budget)));
  const TuningResult want = full.tune();
  EXPECT_STREQ(full.surrogate().objective_backend(), "rff");

  const std::string journal =
      ::testing::TempDir() + "/autodml_rff_switch.journal";
  std::remove(journal.c_str());
  {
    SyntheticObjective objective;
    BoOptions options = configure(tuner_options(61, crash_after));
    options.journal_path = journal;
    BoTuner tuner(objective, options);
    tuner.tune();
  }
  SyntheticObjective resumed;
  BoOptions options = configure(tuner_options(61, full_budget));
  options.journal_path = journal;
  BoTuner tuner(resumed, options);
  const TuningResult got = tuner.tune();

  EXPECT_EQ(tuner.replayed_count(), static_cast<std::size_t>(crash_after));
  ASSERT_EQ(got.trials.size(), want.trials.size());
  for (std::size_t i = 0; i < got.trials.size(); ++i) {
    EXPECT_TRUE(got.trials[i].config == want.trials[i].config) << i;
    EXPECT_DOUBLE_EQ(got.trials[i].outcome.objective,
                     want.trials[i].outcome.objective)
        << i;
  }
  EXPECT_TRUE(got.best_config == want.best_config);
  EXPECT_DOUBLE_EQ(got.best_objective, want.best_objective);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace autodml
