// End-to-end integration tests: the full stack (tuner -> adapter ->
// evaluator -> DES + convergence model) on real workloads, with small
// budgets to keep runtime reasonable.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baseline_tuners.h"
#include "core/bo_tuner.h"
#include "core/sensitivity.h"
#include "workloads/objective_adapter.h"

namespace autodml {
namespace {

core::BoOptions small_bo(std::uint64_t seed, int evals) {
  core::BoOptions options;
  options.seed = seed;
  options.max_evaluations = evals;
  options.initial_design_size = 6;
  options.surrogate.gp.restarts = 1;
  options.surrogate.gp.max_iterations = 30;
  options.acq_optimizer.random_candidates = 200;
  return options;
}

TEST(Integration, TunerBeatsExpertDefaultOnLogreg) {
  const auto& workload = wl::workload_by_name("logreg-ads");
  wl::Evaluator evaluator(workload, 101);
  wl::EvaluatorObjective objective(evaluator);
  core::BoTuner tuner(objective, small_bo(101, 18));
  const core::TuningResult result = tuner.tune();
  ASSERT_TRUE(result.found_feasible());

  const wl::EvalResult tuned =
      evaluator.evaluate_ground_truth(result.best_config);
  const wl::EvalResult expert = evaluator.evaluate_ground_truth(
      wl::default_expert_config(workload, evaluator.space()));
  ASSERT_TRUE(tuned.feasible);
  EXPECT_LT(tuned.tta_seconds, expert.tta_seconds);
}

TEST(Integration, DeterministicEndToEnd) {
  const auto run_once = [] {
    const auto& workload = wl::workload_by_name("mlp-tabular");
    wl::Evaluator evaluator(workload, 55);
    wl::EvaluatorObjective objective(evaluator);
    core::BoTuner tuner(objective, small_bo(55, 12));
    return tuner.tune().best_objective;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Integration, EarlyTerminationSavesSearchCost) {
  const auto& workload = wl::workload_by_name("mlp-tabular");

  wl::Evaluator with_et(workload, 77);
  wl::EvaluatorObjective obj_et(with_et);
  core::BoOptions et_options = small_bo(77, 16);
  et_options.early_term.enabled = true;
  core::BoTuner tuner_et(obj_et, et_options);
  const core::TuningResult r_et = tuner_et.tune();

  wl::Evaluator without_et(workload, 77);
  wl::EvaluatorObjective obj_full(without_et);
  core::BoOptions full_options = small_bo(77, 16);
  full_options.early_term.enabled = false;
  core::BoTuner tuner_full(obj_full, full_options);
  const core::TuningResult r_full = tuner_full.tune();

  ASSERT_TRUE(r_et.found_feasible());
  ASSERT_TRUE(r_full.found_feasible());
  // Early termination must cut evaluation cost...
  EXPECT_LT(with_et.total_spent_seconds(),
            without_et.total_spent_seconds());
  // ...without wrecking final quality (generous factor for small budgets).
  EXPECT_LT(r_et.best_objective, r_full.best_objective * 3.0);
}

TEST(Integration, CostObjectiveFindsCheaperClusters) {
  const auto& workload = wl::workload_by_name("logreg-ads");
  wl::EvaluatorOptions time_opts;
  time_opts.objective = wl::Objective::kTimeToAccuracy;
  wl::EvaluatorOptions cost_opts;
  cost_opts.objective = wl::Objective::kCostToAccuracy;

  wl::Evaluator time_eval(workload, 31, time_opts);
  wl::EvaluatorObjective time_obj(time_eval);
  core::BoTuner time_tuner(time_obj, small_bo(31, 18));
  const core::TuningResult time_result = time_tuner.tune();

  wl::Evaluator cost_eval(workload, 31, cost_opts);
  wl::EvaluatorObjective cost_obj(cost_eval);
  core::BoTuner cost_tuner(cost_obj, small_bo(31, 18));
  const core::TuningResult cost_result = cost_tuner.tune();

  ASSERT_TRUE(time_result.found_feasible());
  ASSERT_TRUE(cost_result.found_feasible());
  const wl::EvalResult cost_best =
      cost_eval.evaluate_ground_truth(cost_result.best_config);
  const wl::EvalResult expert = cost_eval.evaluate_ground_truth(
      wl::default_expert_config(workload, cost_eval.space()));
  ASSERT_TRUE(cost_best.feasible);
  // Cost-objective tuning must at least beat the hand default on dollars.
  EXPECT_LT(cost_best.cost_usd, expert.cost_usd);
}

TEST(Integration, BaselinesRunOnRealWorkload) {
  const auto& workload = wl::workload_by_name("logreg-ads");
  for (const auto& entry : baselines::tuner_registry()) {
    if (entry.name == "autodml" || entry.name == "cherrypick") continue;
    wl::Evaluator evaluator(workload, 13);
    wl::EvaluatorObjective objective(evaluator);
    const core::TuningResult result = entry.fn(objective, 8, 13);
    EXPECT_FALSE(result.trials.empty()) << entry.name;
  }
}

TEST(Integration, TunerHandlesHeavyOomProneWorkload) {
  // resnet-imagenet has real OOM regions (big batches on small shapes).
  const auto& workload = wl::workload_by_name("resnet-imagenet");
  wl::Evaluator evaluator(workload, 303);
  wl::EvaluatorObjective objective(evaluator);
  core::BoTuner tuner(objective, small_bo(303, 15));
  const core::TuningResult result = tuner.tune();
  EXPECT_EQ(result.trials.size(), 15u);
  EXPECT_TRUE(result.found_feasible());
}

TEST(Integration, SensitivityOnRealWorkloadSumsToOne) {
  const auto& workload = wl::workload_by_name("mf-recsys");
  wl::Evaluator evaluator(workload, 404);
  wl::EvaluatorObjective objective(evaluator);
  core::BoTuner tuner(objective, small_bo(404, 16));
  tuner.tune();
  const auto relevance = tuner.surrogate().ard_relevance();
  ASSERT_FALSE(relevance.empty());
  const auto importance =
      core::ard_param_importance(evaluator.space(), relevance);
  double total = 0.0;
  for (const auto& p : importance) total += p.importance;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(importance.size(), evaluator.space().num_params());
}

}  // namespace
}  // namespace autodml
