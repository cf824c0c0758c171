#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "config/sampler.h"
#include "core/acquisition_optimizer.h"
#include "core/bo_tuner.h"
#include "synthetic_objective.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

Trial completed_trial(const conf::Config& config, double objective) {
  Trial t;
  t.config = config;
  t.outcome.feasible = true;
  t.outcome.objective = objective;
  t.outcome.spent_seconds = objective;
  return t;
}

std::vector<Trial> quadratic_history(SyntheticObjective& objective, int n,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Trial> history;
  for (int i = 0; i < n; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    if (c.get_double("x") > 0.9) c.set_double("x", 0.9);  // stay feasible
    history.push_back(completed_trial(c, objective.true_value(c)));
  }
  return history;
}

TEST(AcqOptimizer, NeverProposesEvaluatedConfig) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto history = quadratic_history(objective, 20, 2);
  model.update(history);
  util::Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const auto candidate =
        propose_candidate(model, AcquisitionKind::kLogEi, history, rng);
    ASSERT_TRUE(candidate.has_value());
    for (const Trial& t : history) {
      EXPECT_FALSE(*candidate == t.config);
    }
  }
}

TEST(AcqOptimizer, ReturnsNulloptWhenSpaceExhausted) {
  // Tiny fully-discrete space: once everything is evaluated there is
  // nothing left to propose.
  conf::ConfigSpace space;
  space.add(conf::ParamSpec::boolean("a"));
  space.add(conf::ParamSpec::boolean("b"));
  std::vector<Trial> history;
  util::Rng rng(5);
  for (const conf::Config& c : space.enumerate()) {
    history.push_back(completed_trial(c, 1.0 + rng.uniform()));
  }
  SurrogateModel model(space, {}, 1);
  model.update(history);
  const auto candidate =
      propose_candidate(model, AcquisitionKind::kEi, history, rng);
  EXPECT_FALSE(candidate.has_value());
}

TEST(AcqOptimizer, ProposalsConcentrateNearOptimum) {
  // With a well-sampled quadratic bowl, most proposals should land near the
  // optimum x=0.3 / mode=a rather than uniformly.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> history = quadratic_history(objective, 40, 7);
  model.update(history);
  util::Rng rng(8);
  int near = 0;
  const int proposals = 12;
  for (int i = 0; i < proposals; ++i) {
    const auto candidate =
        propose_candidate(model, AcquisitionKind::kLogEi, history, rng);
    ASSERT_TRUE(candidate.has_value());
    if (std::abs(candidate->get_double("x") - 0.3) < 0.25 &&
        candidate->get_cat("mode") == "a") {
      ++near;
    }
    // Feed it back so successive proposals keep moving.
    history.push_back(
        completed_trial(*candidate, objective.true_value(*candidate)));
    model.update(history);
  }
  EXPECT_GE(near, proposals / 2);
}

TEST(AcqOptimizer, ImputedProjectionsRaisePredictionsInKilledRegion) {
  // Adding aborted trials that carry terrible projections must raise the
  // surrogate's predicted objective in that region relative to the same
  // model without them — killed runs are evidence, not silence.
  SyntheticObjective objective;
  // Base history visits only mode=a, so the model knows nothing of mode=b;
  // the imputed (killed) runs are its only evidence there.
  std::vector<Trial> base;
  for (Trial& t : quadratic_history(objective, 16, 9)) {
    t.config.set_cat("mode", "a");
    objective.space().canonicalize(t.config);
    t.outcome.objective = objective.true_value(t.config);
    base.push_back(std::move(t));
  }
  std::vector<Trial> with_imputed = base;
  util::Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", std::min(c.get_double("x"), 0.9));
    c.set_cat("mode", "b");
    Trial t;
    t.config = c;
    t.outcome.feasible = true;
    t.outcome.aborted = true;
    t.outcome.projected_objective = 5000.0;
    t.outcome.spent_seconds = 5.0;
    with_imputed.push_back(std::move(t));
  }
  SurrogateModel plain(objective.space(), {}, 1);
  plain.update(base);
  SurrogateModel informed(objective.space(), {}, 1);
  informed.update(with_imputed);

  conf::Config probe_b = objective.space().default_config();
  probe_b.set_double("x", 0.4);
  probe_b.set_cat("mode", "b");
  EXPECT_GT(informed.score(probe_b).mean, plain.score(probe_b).mean + 0.5);
  // And the incumbent is untouched (projections are not real observations).
  EXPECT_DOUBLE_EQ(informed.incumbent_log(), plain.incumbent_log());
}

TEST(AcqOptimizer, CostAwareAcquisitionShiftsProposals) {
  // Same objective everywhere, but mode=b "costs" 100x more to evaluate:
  // EI-per-cost should mostly propose mode=a.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1, AcquisitionKind::kEiPerCost);
  std::vector<Trial> history;
  util::Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", std::min(c.get_double("x"), 0.9));
    Trial t = completed_trial(c, 20.0 + rng.uniform());
    t.outcome.spent_seconds = c.get_cat("mode") == "b" ? 2000.0 : 20.0;
    history.push_back(std::move(t));
  }
  model.update(history);
  int cheap = 0;
  const int proposals = 10;
  util::Rng prop_rng(12);
  for (int i = 0; i < proposals; ++i) {
    const auto candidate = propose_candidate(
        model, AcquisitionKind::kEiPerCost, history, prop_rng);
    ASSERT_TRUE(candidate.has_value());
    cheap += candidate->get_cat("mode") == "a";
    history.push_back(completed_trial(*candidate, 20.0));
    history.back().outcome.spent_seconds =
        candidate->get_cat("mode") == "b" ? 2000.0 : 20.0;
    model.update(history);
  }
  EXPECT_GE(cheap, proposals * 6 / 10);
}

TEST(AcqOptimizer, EiPerCostWithoutCostModelThrows) {
  // A surrogate built for another acquisition has no cost model: scoring
  // EI-per-cost on it would read log_cost = 0 and quietly rank by log-EI.
  SyntheticObjective objective;
  const auto history = quadratic_history(objective, 12, 14);
  SurrogateModel model(objective.space(), {}, 1);
  model.update(history);
  ASSERT_FALSE(model.models_cost());
  util::Rng rng(15);
  EXPECT_THROW(
      propose_candidate(model, AcquisitionKind::kEiPerCost, history, rng),
      std::logic_error);
  EXPECT_TRUE(
      propose_candidate(model, AcquisitionKind::kLogEi, history, rng)
          .has_value());
}

TEST(AcqOptimizer, NeighborhoodSeedsComeFromBestTrials) {
  // With a single excellent trial far from everything else, local
  // neighborhoods should produce at least some proposals adjacent to it.
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> history = quadratic_history(objective, 15, 13);
  conf::Config star = objective.space().default_config();
  star.set_double("x", 0.31);
  star.set_cat("mode", "a");
  star.set_int("k", 7);
  history.push_back(completed_trial(star, SyntheticObjective::kOptimum));
  model.update(history);

  AcqOptimizerOptions options;
  options.random_candidates = 0;  // neighborhoods only
  options.top_k = 1;
  options.neighbors_per_seed = 32;
  util::Rng rng(14);
  const auto candidate = propose_candidate(model, AcquisitionKind::kLogEi,
                                           history, rng, options);
  ASSERT_TRUE(candidate.has_value());
  // A neighbor differs from the seed in a bounded way.
  EXPECT_LT(std::abs(candidate->get_double("x") - 0.31), 0.45);
}

/// Two booleans, four configurations, every run crashes: a tuner over it
/// never has a posterior, so every proposal goes through the fallbacks.
class CrashingBoolPair final : public ObjectiveFunction {
 public:
  CrashingBoolPair() {
    space_.add(conf::ParamSpec::boolean("a"));
    space_.add(conf::ParamSpec::boolean("b"));
  }
  const conf::ConfigSpace& space() const override { return space_; }
  double target_metric() const override { return 0.9; }
  RunOutcome run(const conf::Config&, RunController*) override {
    ++runs;
    RunOutcome out;
    out.feasible = false;
    out.failure = "crash";
    out.spent_seconds = 1.0;
    return out;
  }
  int runs = 0;

 private:
  conf::ConfigSpace space_;
};

TEST(AcqOptimizer, DedupKeepsTheFirstOccurrenceOfEachRow) {
  // Two history rows, then a pool of 2-wide rows: repeats within the pool
  // and rows equal to a history row.
  const std::vector<double> rows = {
      0.1, 0.2,  // history 0
      0.3, 0.4,  // history 1
      0.5, 0.6,  // pool 2: new
      0.1, 0.2,  // pool 3: equals history 0
      0.5, 0.6,  // pool 4: repeats pool 2
      0.7, 0.8,  // pool 5: new
      0.3, 0.4,  // pool 6: equals history 1
      0.7, 0.8,  // pool 7: repeats pool 5
      0.6, 0.5,  // pool 8: new (same values, other order)
  };
  EXPECT_EQ(unique_pool_rows(rows, 2, 2),
            (std::vector<std::size_t>{2, 5, 8}));
  // Without a history every first occurrence survives.
  EXPECT_EQ(unique_pool_rows(rows, 2, 0),
            (std::vector<std::size_t>{0, 1, 2, 5, 8}));
  // Repeated history rows are harmless.
  const std::vector<double> twice = {0.1, 0.1, 0.2, 0.1};
  EXPECT_EQ(unique_pool_rows(twice, 1, 3), (std::vector<std::size_t>{}));
  EXPECT_EQ(unique_pool_rows(twice, 1, 2), (std::vector<std::size_t>{2}));
}

TEST(AcqOptimizer, DedupTreatsSignedZerosAsEqual) {
  // Encodings compare element-wise, as the ordered set they replaced did,
  // so 0.0 and -0.0 are the same coordinate.
  const std::vector<double> rows = {0.0, 1.0, -0.0, 1.0, 1.0, -0.0, 1.0, 0.0};
  EXPECT_EQ(unique_pool_rows(rows, 2, 0), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(unique_pool_rows(rows, 2, 1), (std::vector<std::size_t>{2}));
}

TEST(AcqOptimizer, DedupScalesToLargePools) {
  // Thousands of rows, every one repeated once further on: exactly the
  // first copies survive, in generation order.
  std::vector<double> rows;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 5000; ++i) {
      rows.push_back(i * 0.001);
      rows.push_back(static_cast<double>(i % 7));
    }
  }
  const std::vector<std::size_t> unique = unique_pool_rows(rows, 2, 0);
  ASSERT_EQ(unique.size(), 5000u);
  for (std::size_t i = 0; i < unique.size(); ++i) EXPECT_EQ(unique[i], i);
}

TEST(ProposeBatch, UniformFallbackRespectsEvaluatedConfigs) {
  // Four-config discrete space, three already evaluated — all infeasible,
  // so the surrogate never becomes ready and every proposal goes through
  // the uniform fallback. The fallback must skip the evaluated configs
  // (resubmitting one wastes an hours-long run) and report the space
  // exhausted instead of proposing a duplicate.
  CrashingBoolPair objective;
  const std::vector<conf::Config> all = objective.space().enumerate();
  ASSERT_EQ(all.size(), 4u);
  BoOptions options;
  options.seed = 17;
  options.initial_design_size = 0;
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    Trial t;
    t.config = all[i];
    t.outcome.feasible = false;  // crashed: no surrogate signal
    options.warm_start.push_back(std::move(t));
  }
  BoTuner tuner(objective, options);
  const std::optional<BoTuner::SessionAsk> ask = tuner.ask_next();
  ASSERT_TRUE(ask.has_value());  // only one config was never evaluated
  EXPECT_TRUE(ask->config == all.back());
  tuner.tell_next(ask->ticket, tuner.evaluate(*ask));
  EXPECT_FALSE(tuner.ask_next().has_value());
  EXPECT_TRUE(tuner.session_done());
  EXPECT_EQ(objective.runs, 1);
  ASSERT_EQ(tuner.session_result().trials.size(), 1u);
  EXPECT_TRUE(tuner.session_result().trials[0].config == all.back());
}

TEST(ProposeBatch, BatchMirrorsKrigingBelieverByHand) {
  // Replay BoTuner's kriging-believer asks by hand: the first outstanding
  // ticket is proposed from the surrogate fit on the real history; every
  // later one from the fantasy model refit on history plus a
  // make_fantasy_trial belief at the posterior mean of each earlier
  // ticket. k outstanding asks must produce the identical batch — any
  // divergence means the fantasy construction drifted from the documented
  // heuristic (e.g. the removed constant liar at the incumbent).
  SyntheticObjective objective;
  const auto history = quadratic_history(objective, 25, 19);
  const std::uint64_t seed = 23;
  BoOptions options;
  options.seed = seed;
  options.initial_design_size = 0;
  options.random_interleave_prob = 0.0;
  options.acquisition = AcquisitionKind::kEiPerCost;
  options.warm_start = history;
  BoTuner tuner(objective, options);
  std::vector<conf::Config> batch;
  for (int i = 0; i < 3; ++i) {
    const std::optional<BoTuner::SessionAsk> ask = tuner.ask_next();
    ASSERT_TRUE(ask.has_value());
    batch.push_back(ask->config);
  }

  // BoTuner's rng order: the (empty) initial design, then one exploration
  // coin and one propose_candidate per ask. Its two models are seeded as
  // in the constructor.
  util::Rng mirror_rng(seed);
  SurrogateModel model(objective.space(), {},
                       util::Rng(seed).split().next_u64(),
                       AcquisitionKind::kEiPerCost);
  SurrogateModel fantasy_model(
      objective.space(), {},
      util::Rng(seed ^ 0x517cc1b727220a95ULL).split().next_u64(),
      AcquisitionKind::kEiPerCost);
  ASSERT_TRUE(conf::latin_hypercube(objective.space(), 0, mirror_rng).empty());
  std::vector<Trial> augmented = history;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SurrogateModel& fit = i == 0 ? model : fantasy_model;
    fit.update(augmented);
    ASSERT_FALSE(mirror_rng.bernoulli(0.0));
    const auto expected = propose_candidate(
        fit, AcquisitionKind::kEiPerCost, augmented, mirror_rng);
    ASSERT_TRUE(expected.has_value());
    EXPECT_TRUE(batch[i] == *expected) << "batch member " << i;
    augmented.push_back(
        make_fantasy_trial(*expected, fit.score(*expected).mean));
  }
}

TEST(MakeFantasyTrial, BelievesThePosteriorMeanAndNeverCountsAsSuccess) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto history = quadratic_history(objective, 20, 29);
  conf::Config probe = objective.space().default_config();
  probe.set_double("x", 0.5);

  // No posterior (model not ready): no belief — the fantasy only dedups
  // the pending config. (The removed constant-liar code fabricated
  // objective = 1.0 here.)
  const Trial blind =
      make_fantasy_trial(probe, std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(blind.fantasized);
  EXPECT_FALSE(blind.succeeded());
  EXPECT_TRUE(std::isinf(blind.outcome.objective));

  model.update(history);
  ASSERT_TRUE(model.ready());
  const Trial fantasy = make_fantasy_trial(probe, model.score(probe).mean);
  EXPECT_TRUE(fantasy.fantasized);
  EXPECT_FALSE(fantasy.succeeded());  // never an incumbent / neighborhood seed
  EXPECT_DOUBLE_EQ(fantasy.outcome.objective,
                   std::exp(model.score(probe).mean));
  EXPECT_DOUBLE_EQ(fantasy.outcome.spent_seconds, 0.0);
}

TEST(MakeFantasyTrial, FantasiesLeaveFeasibilityAndCostModelsUntouched) {
  // Regression for the constant-liar leak: batch placeholders are labeled
  // `feasible = true`, and untagged they trained the feasibility GP toward
  // "feasible" at pending points — in the worst case inside a known crash
  // region. A model fit on history + fantasies must score feasibility,
  // cost, and the incumbent exactly as a history-only fit does.
  SyntheticObjective objective;
  std::vector<Trial> history = quadratic_history(objective, 18, 31);
  util::Rng rng(32);
  for (int i = 0; i < 6; ++i) {  // teach the model a real crash region
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", 0.93 + 0.01 * i);
    Trial t;
    t.config = c;
    t.outcome.feasible = false;
    t.outcome.failure = "crash region";
    t.outcome.spent_seconds = 1.0;
    history.push_back(std::move(t));
  }

  SurrogateModel plain(objective.space(), {}, 7, AcquisitionKind::kEiPerCost);
  plain.update(history);
  ASSERT_TRUE(plain.ready());

  // Fantasize pending evaluations *inside* the crash region — the most
  // damaging spot for a leaked `feasible = true` label.
  std::vector<Trial> augmented = history;
  for (double x : {0.94, 0.96, 0.98}) {
    conf::Config c = objective.space().default_config();
    c.set_double("x", x);
    augmented.push_back(make_fantasy_trial(c, plain.score(c).mean));
  }
  SurrogateModel with_fantasies(objective.space(), {}, 7,
                                AcquisitionKind::kEiPerCost);
  with_fantasies.update(augmented);
  ASSERT_TRUE(with_fantasies.ready());

  EXPECT_DOUBLE_EQ(with_fantasies.incumbent_log(), plain.incumbent_log());
  util::Rng probe_rng(33);
  for (int i = 0; i < 12; ++i) {
    conf::Config probe = objective.space().sample_uniform(probe_rng);
    const SurrogateScore a = plain.score(probe);
    const SurrogateScore b = with_fantasies.score(probe);
    EXPECT_DOUBLE_EQ(a.prob_feasible, b.prob_feasible) << probe.to_string();
    EXPECT_DOUBLE_EQ(a.log_cost, b.log_cost) << probe.to_string();
  }
}

}  // namespace
}  // namespace autodml::core
