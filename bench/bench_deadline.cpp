// Experiment R-T12 (extension) — SLO-constrained cost tuning.
//
// Minimize dollar cost subject to a time-to-accuracy deadline, sweeping the
// deadline from loose to tight. The tuner never sees the constraint
// explicitly: deadline-violating runs surface as failures, and the
// feasibility model learns the violating region. Expected shape: a Pareto
// frontier — cost rises as the deadline tightens (faster clusters must be
// bought), until the deadline becomes infeasible outright.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"seeds", "evals", "workload"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int evals = static_cast<int>(args.get_int("evals", 25));
  const std::string workload_name = args.get("workload", "logreg-ads");
  const wl::Workload& workload = wl::workload_by_name(workload_name);

  // Deadlines in hours; infinity = unconstrained reference.
  const std::vector<double> deadlines_h = {
      std::numeric_limits<double>::infinity(), 24.0, 6.0, 1.5, 0.4, 0.1};

  std::vector<std::vector<std::string>> rows(deadlines_h.size());
  bench::parallel_tasks(deadlines_h.size(), [&](std::size_t d) {
    std::vector<double> costs, ttas;
    int found = 0;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 2100 + s;
      wl::EvaluatorOptions eval_options;
      eval_options.objective = wl::Objective::kCostToAccuracy;
      eval_options.deadline_seconds = deadlines_h[d] * 3600.0;
      wl::Evaluator evaluator(workload, seed, eval_options);
      wl::EvaluatorObjective objective(evaluator);
      core::BoOptions options = bench::bench_bo_options(seed, evals);
      core::BoTuner tuner(objective, options);
      const core::TuningResult result = tuner.tune();
      if (!result.found_feasible()) continue;
      const wl::EvalResult truth =
          evaluator.evaluate_ground_truth(result.best_config);
      if (!truth.feasible) continue;
      ++found;
      costs.push_back(truth.cost_usd);
      ttas.push_back(truth.tta_seconds / 3600.0);
    }
    rows[d] = {std::isfinite(deadlines_h[d]) ? util::fmt(deadlines_h[d])
                                             : "inf",
               found ? util::fmt(util::mean(costs)) : "-",
               found ? util::fmt(util::mean(ttas)) : "-",
               std::to_string(found) + "/" + std::to_string(seeds)};
  });

  bench::print_table(
      "R-T12  " + workload_name +
          "  cheapest config under a TTA deadline (budget=" +
          std::to_string(evals) + ", seeds=" + std::to_string(seeds) + ")",
      {"deadline-h", "mean-cost-$", "mean-TTA-h", "solved"}, rows);
  return 0;
}
