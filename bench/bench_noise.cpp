// Experiment R-F14 (extension) — robustness to evaluation noise.
//
// Repeated evaluations of one configuration disagree (per-run lognormal
// noise on samples-to-target). Sweep the noise level and compare the
// noise-aware tuner (GP with fitted noise hyperparameter) against random
// search at the same budget. Expected shape: both degrade as noise grows,
// but the model-based tuner degrades gracefully — the GP's noise estimate
// keeps it from chasing lucky draws — so its margin over random persists.
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
  const std::string workload_name = args.get("workload", "mlp-tabular");
  const wl::Workload& workload = wl::workload_by_name(workload_name);
  const bench::Oracle oracle =
      bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

  const std::vector<double> noise_levels = {0.0, 0.05, 0.15, 0.30};
  std::vector<std::vector<std::string>> rows(noise_levels.size());
  bench::parallel_tasks(noise_levels.size(), [&](std::size_t n) {
    std::vector<double> bo_ratios, random_ratios;
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 3100 + s;
      for (const bool use_bo : {true, false}) {
        wl::EvaluatorOptions eval_options;
        eval_options.eval_noise_sigma_override = noise_levels[n];
        wl::Evaluator evaluator(workload, seed, eval_options);
        wl::EvaluatorObjective objective(evaluator);
        core::TuningResult result;
        if (use_bo) {
          core::BoOptions options = bench::bench_bo_options(seed, evals);
          core::BoTuner tuner(objective, options);
          result = tuner.tune();
        } else {
          result = baselines::random_search(objective, evals, seed);
        }
        double ratio = 99.0;
        if (result.found_feasible()) {
          const wl::EvalResult truth =
              evaluator.evaluate_ground_truth(result.best_config);
          if (truth.feasible) ratio = truth.tta_seconds / oracle.objective;
        }
        (use_bo ? bo_ratios : random_ratios).push_back(ratio);
      }
    }
    rows[n] = {util::fmt(noise_levels[n], 3),
               bench::fmt_ratio(util::mean(bo_ratios)),
               bench::fmt_ratio(util::mean(random_ratios))};
  });

  bench::print_table(
      "R-F14  " + workload_name +
          "  final quality vs evaluation-noise level (budget=" +
          std::to_string(evals) + ", seeds=" + std::to_string(seeds) + ")",
      {"noise-sigma", "autodml-vs-oracle", "random-vs-oracle"}, rows);
  return 0;
}
