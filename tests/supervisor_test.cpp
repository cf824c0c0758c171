// EvalSupervisor: retry/backoff mechanics, transient-vs-deterministic
// classification, ledger accounting, and the feasibility-model exclusion
// of transient failures.
#include <gtest/gtest.h>

#include <cmath>

#include "core/early_termination.h"
#include "core/surrogate.h"
#include "ml/convergence.h"
#include "workloads/eval_supervisor.h"
#include "workloads/objective_adapter.h"

namespace autodml::wl {
namespace {

const Workload& test_workload() { return workload_by_name("mlp-tabular"); }

conf::Config expert_config(const Evaluator& evaluator) {
  return default_expert_config(evaluator.workload(), evaluator.space());
}

/// A kill rate so high that every attempt dies almost immediately.
EvaluatorOptions certain_kill_options() {
  EvaluatorOptions options;
  options.faults.job_kill_rate_per_hour = 1e7;
  return options;
}

TEST(Backoff, GrowsGeometricallyAndCaps) {
  RetryPolicy policy;
  policy.backoff_base_seconds = 30.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap_seconds = 100.0;
  EXPECT_DOUBLE_EQ(backoff_mean_seconds(policy, 1), 30.0);
  EXPECT_DOUBLE_EQ(backoff_mean_seconds(policy, 2), 60.0);
  EXPECT_DOUBLE_EQ(backoff_mean_seconds(policy, 3), 100.0);  // capped (120)
  EXPECT_DOUBLE_EQ(backoff_mean_seconds(policy, 9), 100.0);
}

TEST(Supervisor, RetriesTransientFailuresUpToTheCap) {
  Evaluator evaluator(test_workload(), /*seed=*/5, certain_kill_options());
  RetryPolicy policy;
  policy.max_attempts = 4;
  EvalSupervisor supervisor(evaluator, policy, /*seed=*/5);
  const SupervisedOutcome out = supervisor.evaluate(expert_config(evaluator));
  EXPECT_EQ(out.attempts, 4);
  ASSERT_EQ(out.attempt_kinds.size(), 4u);
  for (const core::FailureKind kind : out.attempt_kinds) {
    EXPECT_EQ(kind, core::FailureKind::kInfraCrash);
  }
  EXPECT_FALSE(out.result.feasible);
  EXPECT_TRUE(core::is_transient(out.result.failure_kind));
  EXPECT_GT(out.backoff_seconds, 0.0);
}

TEST(Supervisor, BackoffStaysInsideJitterBounds) {
  Evaluator evaluator(test_workload(), 5, certain_kill_options());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_seconds = 30.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap_seconds = 600.0;
  policy.jitter_fraction = 0.25;
  EvalSupervisor supervisor(evaluator, policy, 5);
  const SupervisedOutcome out = supervisor.evaluate(expert_config(evaluator));
  // Two retries: means 30 and 60, each jittered by at most 25%.
  EXPECT_GE(out.backoff_seconds, 90.0 * 0.75);
  EXPECT_LE(out.backoff_seconds, 90.0 * 1.25);
}

TEST(Supervisor, BackoffAndAllAttemptsChargeTheLedger) {
  Evaluator evaluator(test_workload(), 5, certain_kill_options());
  RetryPolicy policy;
  policy.max_attempts = 3;
  EvalSupervisor supervisor(evaluator, policy, 5);
  const SupervisedOutcome out = supervisor.evaluate(expert_config(evaluator));
  EXPECT_NEAR(evaluator.total_spent_seconds(), out.total_spent_seconds, 1e-9);
  EXPECT_GT(out.total_spent_seconds, out.backoff_seconds);
}

TEST(Supervisor, JitterIsDeterministicGivenSeed) {
  SupervisedOutcome outs[2];
  for (int i = 0; i < 2; ++i) {
    Evaluator evaluator(test_workload(), 5, certain_kill_options());
    EvalSupervisor supervisor(evaluator, RetryPolicy{}, /*seed=*/17);
    outs[i] = supervisor.evaluate(expert_config(evaluator));
  }
  EXPECT_DOUBLE_EQ(outs[0].backoff_seconds, outs[1].backoff_seconds);
  EXPECT_DOUBLE_EQ(outs[0].total_spent_seconds, outs[1].total_spent_seconds);
}

TEST(Supervisor, DeterministicFailuresAreNotRetried) {
  // An impossible SLO makes every run a deterministic deadline failure.
  EvaluatorOptions options;
  options.deadline_seconds = 1.0;
  Evaluator evaluator(test_workload(), 5, options);
  RetryPolicy policy;
  policy.max_attempts = 5;
  EvalSupervisor supervisor(evaluator, policy, 5);
  const SupervisedOutcome out = supervisor.evaluate(expert_config(evaluator));
  EXPECT_EQ(out.attempts, 1);
  EXPECT_FALSE(out.result.feasible);
  EXPECT_EQ(out.result.failure_kind, core::FailureKind::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(out.backoff_seconds, 0.0);
}

TEST(Supervisor, TimeoutBecomesDeterministicEvalTimeout) {
  Evaluator probe(test_workload(), 5, EvaluatorOptions{});
  const EvalResult truth = probe.evaluate_ground_truth(expert_config(probe));
  ASSERT_TRUE(truth.feasible);

  Evaluator evaluator(test_workload(), 5, EvaluatorOptions{});
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.attempt_timeout_seconds = truth.tta_seconds / 4.0;
  EvalSupervisor supervisor(evaluator, policy, 5);
  const SupervisedOutcome out = supervisor.evaluate(expert_config(evaluator));
  EXPECT_EQ(out.attempts, 1);  // hung evaluations are not retried
  EXPECT_FALSE(out.result.feasible);
  EXPECT_FALSE(out.result.terminated_early);
  EXPECT_EQ(out.result.failure_kind, core::FailureKind::kEvalTimeout);
}

TEST(Supervisor, RetryCanRecoverAnEvaluation) {
  // Tune the kill rate to ~50% per attempt for this config's duration:
  // some attempts die, some survive, so with enough evaluations at least
  // one must succeed only thanks to a retry. Deterministic given the seed.
  Evaluator probe(test_workload(), 11, EvaluatorOptions{});
  const conf::Config config = expert_config(probe);
  const EvalResult truth = probe.evaluate_ground_truth(config);
  ASSERT_TRUE(truth.feasible);

  EvaluatorOptions options;
  options.faults.job_kill_rate_per_hour = 0.7 * 3600.0 / truth.tta_seconds;
  Evaluator evaluator(test_workload(), 11, options);
  RetryPolicy policy;
  policy.max_attempts = 5;
  EvalSupervisor supervisor(evaluator, policy, 11);
  bool recovered = false;
  for (int i = 0; i < 30 && !recovered; ++i) {
    const SupervisedOutcome out = supervisor.evaluate(config);
    recovered = out.result.feasible && out.attempts > 1;
  }
  EXPECT_TRUE(recovered);
}

TEST(Supervisor, AttemptBoundaryIsAnnouncedBeforeAnyCheckpoint) {
  // run_attempt's contract: every attempt that streams checkpoints first
  // announces itself through on_run_start, so controllers can reset
  // per-attempt verdict state (the early-termination confirmation streak).
  struct SpyController final : core::RunController {
    int starts = 0;
    int checkpoints = 0;
    bool checkpoint_before_start = false;
    void on_run_start(double) override { ++starts; }
    bool should_abort(const core::RunCheckpoint&) override {
      if (starts == 0) checkpoint_before_start = true;
      ++checkpoints;
      return false;
    }
  };
  Evaluator evaluator(test_workload(), 5, EvaluatorOptions{});
  EvalSupervisor supervisor(evaluator, RetryPolicy{}, 5);
  SpyController spy;
  const SupervisedOutcome out =
      supervisor.evaluate(expert_config(evaluator), &spy);
  EXPECT_TRUE(out.result.feasible);
  EXPECT_EQ(spy.starts, 1);
  EXPECT_GT(spy.checkpoints, 0);
  EXPECT_FALSE(spy.checkpoint_before_start);
}

TEST(Supervisor, EarlyTerminationStaysSoundAfterARetriedFirstAttempt) {
  // Regression (companion to the policy-level test in early_term_test):
  // on_run_start used to carry the hopeless streak and the streamed
  // checkpoints across attempts. The inherited streak could insta-abort a
  // fresh retry at its first checkpoint, and the inherited points — a
  // retry re-streams the curve from wall-clock zero, so they arrive as
  // non-monotone replicates — broke every later curve fit, so a genuinely
  // hopeless retry could never be killed at all. Feed the policy a doomed
  // first attempt by hand (checkpoints on the configuration's own curve),
  // then run a supervised evaluation with it: run_attempt's on_run_start
  // must reset the verdict state, and the evaluation must still be killed
  // on this attempt's own evidence.
  Evaluator probe(test_workload(), 5, EvaluatorOptions{});
  const conf::Config config = expert_config(probe);
  const EvalResult truth = probe.evaluate_ground_truth(config);
  ASSERT_TRUE(truth.feasible);
  ASSERT_GT(truth.tta_seconds, 600.0);  // streams enough real checkpoints

  core::EarlyTermOptions term;
  term.target_metric = test_workload().stat.target_metric;
  term.min_checkpoints = 6;
  term.confirmations = 2;
  core::EarlyTerminationPolicy policy(term,
                                      /*incumbent=*/truth.tta_seconds / 100.0);

  // "First attempt": six checkpoints of the config's own curve — hopeless
  // against an incumbent 100x faster — building verdict state (streak one
  // short of the kill) before the attempt dies transiently.
  policy.on_run_start(truth.usd_per_hour);
  for (int k = 1; k <= 6; ++k) {
    core::RunCheckpoint cp;
    cp.wall_seconds = truth.tta_seconds * k / 40.0;
    cp.samples = truth.runtime.samples_per_second * cp.wall_seconds;
    cp.metric =
        ml::metric_at(test_workload().stat, cp.samples, truth.samples_needed);
    ASSERT_FALSE(policy.should_abort(cp)) << "checkpoint " << k;
  }

  Evaluator evaluator(test_workload(), 5, EvaluatorOptions{});
  EvalSupervisor supervisor(evaluator, RetryPolicy{}, 5);
  const SupervisedOutcome out = supervisor.evaluate(config, &policy);
  // Killed — but on the retry's own evidence: at least min_checkpoints +
  // confirmations - 1 checkpoints (60s apart) streamed first. An inherited
  // streak would have aborted at the first checkpoint; inherited points
  // would have prevented the abort entirely.
  EXPECT_TRUE(out.result.terminated_early);
  EXPECT_GE(out.result.spent_seconds,
            (term.min_checkpoints + term.confirmations - 1) * 60.0);
}

TEST(Supervisor, FeasibilityModelIgnoresTransientFailures) {
  // A history whose only failures are transient must leave the feasibility
  // model certain: every deterministic data point says "feasible".
  Evaluator evaluator(test_workload(), 5, EvaluatorOptions{});
  const conf::ConfigSpace& space = evaluator.space();
  util::Rng rng(3);

  std::vector<core::Trial> trials;
  for (int i = 0; i < 12; ++i) {
    core::Trial t;
    t.config = space.sample_uniform(rng);
    if (i % 2 == 0) {
      t.outcome.feasible = true;
      t.outcome.objective = 100.0 + i;
    } else {
      t.outcome.feasible = false;
      t.outcome.failure_kind = core::FailureKind::kPreempted;
      t.outcome.failure = "spot preemption";
    }
    t.outcome.spent_seconds = 1.0;
    trials.push_back(std::move(t));
  }

  core::SurrogateOptions options;
  options.gp.restarts = 1;
  options.gp.max_iterations = 20;
  core::SurrogateModel surrogate(space, options, /*seed=*/9);
  surrogate.update(trials);
  ASSERT_TRUE(surrogate.ready());
  for (const core::Trial& t : trials) {
    EXPECT_NEAR(surrogate.score(t.config).prob_feasible, 1.0, 1e-6);
  }
}

TEST(SupervisedObjective, ReportsAttemptsAndAggregateCost) {
  Evaluator evaluator(test_workload(), 5, certain_kill_options());
  RetryPolicy policy;
  policy.max_attempts = 3;
  EvalSupervisor supervisor(evaluator, policy, 5);
  SupervisedObjective objective(supervisor);
  const core::RunOutcome out =
      objective.run(expert_config(evaluator), nullptr);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_TRUE(out.transient_failure());
  EXPECT_NEAR(out.spent_seconds, evaluator.total_spent_seconds(), 1e-9);
}

}  // namespace
}  // namespace autodml::wl
