#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/surrogate.h"
#include "obs/metrics.h"
#include "synthetic_objective.h"

namespace autodml::core {
namespace {

using testing::SyntheticObjective;

Trial make_trial(const conf::Config& config, double objective, bool feasible,
                 bool aborted = false) {
  Trial t;
  t.config = config;
  t.outcome.feasible = feasible;
  t.outcome.aborted = aborted;
  t.outcome.objective = feasible && !aborted
                            ? objective
                            : std::numeric_limits<double>::infinity();
  t.outcome.spent_seconds = feasible ? objective : 1.0;
  return t;
}

std::vector<Trial> sample_trials(SyntheticObjective& objective, int n,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Trial> trials;
  for (int i = 0; i < n; ++i) {
    const conf::Config c = objective.space().sample_uniform(rng);
    const bool feasible = c.get_double("x") <= 0.92;
    trials.push_back(
        make_trial(c, feasible ? objective.true_value(c) : 0.0, feasible));
  }
  return trials;
}

TEST(Surrogate, NotReadyWithFewSuccesses) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  EXPECT_FALSE(model.ready());
  util::Rng rng(2);
  const conf::Config c = objective.space().sample_uniform(rng);
  std::vector<Trial> one{make_trial(c, 5.0, true)};
  model.update(one);
  EXPECT_FALSE(model.ready());
  EXPECT_THROW(model.score(c), std::logic_error);
}

TEST(Surrogate, ReadyAfterTwoSuccesses) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 8, 3);
  model.update(trials);
  EXPECT_TRUE(model.ready());
}

TEST(Surrogate, PredictsLogObjectiveOrdering) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 40, 4);
  model.update(trials);

  // Near-optimal config must score lower mean than a clearly bad one.
  conf::Config good = objective.space().default_config();
  good.set_double("x", 0.3);
  good.set_cat("mode", "a");
  good.set_int("k", 7);
  conf::Config bad = good;
  bad.set_double("x", 0.85);
  bad.set_cat("mode", "b");
  bad.set_int("k", 1);
  EXPECT_LT(model.score(good).mean, model.score(bad).mean);
}

TEST(Surrogate, IncumbentIsMinimumLogObjective) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  const auto trials = sample_trials(objective, 25, 5);
  model.update(trials);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : trials) {
    if (t.succeeded()) best = std::min(best, std::log(t.outcome.objective));
  }
  EXPECT_DOUBLE_EQ(model.incumbent_log(), best);
}

TEST(Surrogate, FeasibilityLowNearFailures) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  // Deliberately include many crashes in the x > 0.92 region.
  std::vector<Trial> trials = sample_trials(objective, 30, 6);
  conf::Config crash = objective.space().default_config();
  for (double x : {0.93, 0.95, 0.97, 0.99, 0.94, 0.96}) {
    crash.set_double("x", x);
    trials.push_back(make_trial(crash, 0.0, false));
  }
  model.update(trials);

  conf::Config safe = objective.space().default_config();
  safe.set_double("x", 0.3);
  conf::Config risky = objective.space().default_config();
  risky.set_double("x", 0.97);
  EXPECT_GT(model.score(safe).prob_feasible,
            model.score(risky).prob_feasible);
  EXPECT_LT(model.score(risky).prob_feasible, 0.6);
}

TEST(Surrogate, AllFeasibleGivesFullConfidence) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> trials;
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", 0.2 + 0.05 * i);  // all safe
    trials.push_back(make_trial(c, objective.true_value(c), true));
  }
  model.update(trials);
  EXPECT_DOUBLE_EQ(model.score(trials[0].config).prob_feasible, 1.0);
}

TEST(Surrogate, AbortedRunsAreCensoredFromObjective) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  std::vector<Trial> trials = sample_trials(objective, 10, 8);
  // A slate of aborted runs at an extreme-looking config must not crash or
  // skew the incumbent.
  conf::Config c = objective.space().default_config();
  c.set_double("x", 0.5);
  for (int i = 0; i < 5; ++i) trials.push_back(make_trial(c, 0.0, true, true));
  const double incumbent_before = [&] {
    SurrogateModel m(objective.space(), {}, 1);
    m.update(std::span<const Trial>(trials.data(), 10));
    return m.incumbent_log();
  }();
  model.update(trials);
  EXPECT_DOUBLE_EQ(model.incumbent_log(), incumbent_before);
}

TEST(Surrogate, CostModelTracksSpentSeconds) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1, AcquisitionKind::kEiPerCost);
  const auto trials = sample_trials(objective, 30, 9);
  model.update(trials);
  // Cheap config (low objective = low spent) vs expensive one.
  conf::Config cheap = objective.space().default_config();
  cheap.set_double("x", 0.3);
  cheap.set_cat("mode", "a");
  cheap.set_int("k", 7);
  conf::Config costly = cheap;
  costly.set_cat("mode", "b");
  costly.set_int("k", 1);
  EXPECT_LT(model.score(cheap).log_cost, model.score(costly).log_cost);
}

TEST(Surrogate, CostModelOnlyForEiPerCost) {
  // Failure-free trials: no feasibility GP, so each hyperopt update fits
  // the objective GP, plus the cost GP only when EI-per-cost reads it.
  SyntheticObjective objective;
  util::Rng rng(12);
  std::vector<Trial> trials;
  for (int i = 0; i < 14; ++i) {
    conf::Config c = objective.space().sample_uniform(rng);
    c.set_double("x", std::min(c.get_double("x"), 0.9));
    trials.push_back(make_trial(c, objective.true_value(c), true));
  }
  auto& registry = obs::MetricsRegistry::instance();
  registry.enable();
  for (const auto kind : {AcquisitionKind::kLogEi,
                          AcquisitionKind::kEiPerCost}) {
    registry.reset();
    const auto& rounds = registry.counter("gp.hyperopt_rounds");
    SurrogateModel model(objective.space(), {}, 1, kind);
    const std::int64_t per_update =
        kind == AcquisitionKind::kEiPerCost ? 2 : 1;
    EXPECT_EQ(model.models_cost(), per_update == 2);
    for (std::size_t n = 10; n <= trials.size(); ++n) {
      const std::int64_t before = rounds.value();
      model.update(std::span(trials).first(n));
      EXPECT_EQ(rounds.value() - before, per_update)
          << to_string(kind) << " n=" << n;
    }
    const double log_cost = model.score(trials[0].config).log_cost;
    if (model.models_cost()) {
      EXPECT_NE(log_cost, 0.0);
    } else {
      EXPECT_EQ(log_cost, 0.0);
    }
  }
  registry.disable();
}

TEST(Surrogate, ArdRelevanceHasEncodedDimension) {
  SyntheticObjective objective;
  SurrogateModel model(objective.space(), {}, 1);
  EXPECT_TRUE(model.ard_relevance().empty());
  const auto trials = sample_trials(objective, 25, 10);
  model.update(trials);
  EXPECT_EQ(model.ard_relevance().size(),
            objective.space().encoded_dimension());
}

TEST(Surrogate, UpdateIsIdempotent) {
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 1000;  // freeze hyperparameters after first fit
  SurrogateModel model(objective.space(), options, 1);
  const auto trials = sample_trials(objective, 15, 11);
  model.update(trials);
  const double mean1 = model.score(trials[0].config).mean;
  model.update(trials);
  const double mean2 = model.score(trials[0].config).mean;
  EXPECT_NEAR(mean1, mean2, 1e-9);
}

// A feasible trial with x kept out of the crash region.
Trial make_trial(const SyntheticObjective& objective, util::Rng& rng) {
  Trial t;
  conf::Config c = objective.space().sample_uniform(rng);
  c.set_double("x", rng.uniform(0.0, 0.9));
  t.config = c;
  t.outcome.feasible = true;
  t.outcome.objective = objective.true_value(c);
  t.outcome.spent_seconds = t.outcome.objective;
  return t;
}

TEST(Surrogate, RefitSchedulingCountsSkipsAndRounds) {
  obs::MetricsRegistry::instance().enable();
  obs::MetricsRegistry::instance().reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 4;
  options.refit_nlml_degradation = 0.0;  // isolate the schedule
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

TEST(Surrogate, EvidenceTriggerForcesEarlyHyperopt) {
  obs::MetricsRegistry::instance().enable();
  obs::MetricsRegistry::instance().reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 1000;          // schedule would never fire again
  options.refit_nlml_degradation = 1e-9;  // hair trigger
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

TEST(Surrogate, AppendsOnlyWhenTheHeldTrainingSetIsAPrefix) {
  // Failure-free trials under log-EI: the objective GP is the only model,
  // so gp.append_fast counts its incremental updates alone.
  auto& registry = obs::MetricsRegistry::instance();
  registry.enable();
  registry.reset();
  SyntheticObjective objective;
  SurrogateOptions options;
  options.hyperopt_every = 1000;  // no scheduled hyperopt after the first
  options.refit_nlml_degradation = 0.0;
  SurrogateModel model(objective.space(), options, 51);
  util::Rng rng(52);
  std::vector<Trial> trials;
  for (int i = 0; i < 8; ++i) trials.push_back(make_trial(objective, rng));
  model.update(trials);
  const auto& appends = registry.counter("gp.append_fast");
  ASSERT_EQ(appends.value(), 0);

  trials.push_back(make_trial(objective, rng));
  model.update(trials);  // history plus one trial
  EXPECT_EQ(appends.value(), 1);

  // One trial longer again, but an earlier target changed: a full refit.
  trials.push_back(make_trial(objective, rng));
  trials[2].outcome.objective *= 2.0;
  model.update(trials);
  EXPECT_EQ(appends.value(), 1);

  // Likewise when an earlier input row changed.
  trials.push_back(make_trial(objective, rng));
  trials[3].config.set_int("k", trials[3].config.get_int("k") % 10 + 1);
  model.update(trials);
  EXPECT_EQ(appends.value(), 1);
  EXPECT_EQ(registry.counter("surrogate.refit_skipped").value(), 3);
  registry.disable();
}

}  // namespace
}  // namespace autodml::core
