// Experiment R-F10 (extension) — tuning under transient faults.
//
// Real clusters preempt spot instances, lose workers, and suffer degraded
// networks; evaluations sometimes die through no fault of the configuration.
// Sweep the fault environment (off / light / heavy) crossed with the retry
// policy (none vs supervised retries) and report final quality vs the
// fault-free oracle, search cost, and the retry overhead actually paid.
// Expected shape: without retries, transient kills masquerade as infeasible
// configurations and quality degrades with fault rate; the supervisor
// recovers most of the quality at a modest extra search cost, and the
// feasibility surrogate stays clean because transient failures are excluded
// from it.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"
#include "workloads/eval_supervisor.h"

using namespace autodml;

namespace {

struct FaultEnv {
  std::string name;
  sim::FaultSpec spec;
};

struct CellStats {
  std::vector<double> ratios;
  std::vector<double> cost_hours;
  std::vector<double> attempts_per_eval;
  std::vector<double> transient_trials;
};

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"seeds", "evals", "workload"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int evals = static_cast<int>(args.get_int("evals", 25));
  const std::string workload_name = args.get("workload", "mlp-tabular");
  const wl::Workload& workload = wl::workload_by_name(workload_name);
  const bench::Oracle oracle =
      bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

  const std::vector<FaultEnv> envs = {
      {"off", sim::FaultSpec{}},
      {"light", sim::light_fault_spec()},
      {"heavy", sim::heavy_fault_spec()},
  };
  const std::vector<bool> retry_modes = {false, true};

  // One task per (env, retry) cell; replicates run inside the task.
  std::vector<CellStats> cells(envs.size() * retry_modes.size());
  bench::parallel_tasks(cells.size(), [&](std::size_t cell) {
    const FaultEnv& env = envs[cell / retry_modes.size()];
    const bool retry = retry_modes[cell % retry_modes.size()];
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 4400 + s;
      wl::EvaluatorOptions eval_options;
      eval_options.faults = env.spec;
      wl::Evaluator evaluator(workload, seed, eval_options);
      wl::RetryPolicy policy;
      if (!retry) policy.max_attempts = 1;
      wl::EvalSupervisor supervisor(evaluator, policy, seed);
      wl::SupervisedObjective objective(supervisor);
      core::BoOptions options = bench::bench_bo_options(seed, evals);
      core::BoTuner tuner(objective, options);
      const core::TuningResult result = tuner.tune();

      double ratio = 99.0;
      if (result.found_feasible()) {
        const wl::EvalResult truth =
            evaluator.evaluate_ground_truth(result.best_config);
        if (truth.feasible) ratio = truth.tta_seconds / oracle.objective;
      }
      double attempts = 0.0, transients = 0.0;
      for (const core::Trial& t : result.trials) {
        attempts += static_cast<double>(t.outcome.attempts);
        if (t.outcome.transient_failure()) transients += 1.0;
      }
      CellStats& stats = cells[cell];
      stats.ratios.push_back(ratio);
      stats.cost_hours.push_back(evaluator.total_spent_seconds() / 3600.0);
      stats.attempts_per_eval.push_back(
          attempts / static_cast<double>(std::max<std::size_t>(
                         1, result.trials.size())));
      stats.transient_trials.push_back(transients);
    }
  });

  std::vector<std::vector<std::string>> rows;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const FaultEnv& env = envs[cell / retry_modes.size()];
    const bool retry = retry_modes[cell % retry_modes.size()];
    const CellStats& stats = cells[cell];
    rows.push_back({env.name, retry ? "retry" : "none",
                    bench::fmt_ratio(util::mean(stats.ratios)),
                    util::fmt(util::mean(stats.cost_hours), 2),
                    util::fmt(util::mean(stats.attempts_per_eval), 2),
                    util::fmt(util::mean(stats.transient_trials), 1)});
  }

  bench::print_table(
      "R-F10  " + workload_name +
          "  tuning under transient faults (budget=" + std::to_string(evals) +
          ", seeds=" + std::to_string(seeds) + ")",
      {"faults", "retries", "autodml-vs-oracle", "search-cost-h",
       "attempts-per-eval", "transient-trials"},
      rows);
  return 0;
}
