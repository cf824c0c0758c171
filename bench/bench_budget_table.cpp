// Experiment R-T3 — fixed-budget comparison (the paper's headline table).
//
// Every method gets the same evaluation budget on every workload; we report
// the mean (over seeds) of: final ground-truth objective normalized to the
// oracle, speedup over the expert default, search cost in simulated cluster
// hours, and how many runs failed (OOM/diverged). A per-method geomean row
// across workloads closes the table. Expected shape: autodml ~1.0-1.3x of
// oracle with the lowest search cost among model-based methods; random/grid
// trail; the default is several times off the oracle.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"seeds", "evals", "workloads"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int evals = static_cast<int>(args.get_int("evals", 30));
  const std::vector<std::string> workload_names = util::split(
      args.get("workloads",
               "logreg-ads,mf-recsys,mlp-tabular,cnn-cifar,resnet-imagenet,"
               "word2vec-text"),
      ',');

  const auto& registry = baselines::tuner_registry();
  // ratio_sum[m] accumulates log ratios for the cross-workload geomean.
  std::vector<std::vector<double>> all_ratios(registry.size());

  for (const std::string& workload_name : workload_names) {
    const wl::Workload& workload = wl::workload_by_name(workload_name);
    const bench::Oracle oracle =
        bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);
    wl::Evaluator probe(workload, 1);
    const double default_tta =
        probe
            .evaluate_ground_truth(
                wl::default_expert_config(workload, probe.space()))
            .tta_seconds;

    std::vector<bench::ReplicateResult> results(registry.size() * seeds);
    bench::parallel_tasks(results.size(), [&](std::size_t task) {
      const std::size_t m = task / seeds;
      const std::uint64_t seed = 500 + task % seeds;
      results[task] = bench::run_replicate(
          workload, wl::Objective::kTimeToAccuracy,
          [&](core::ObjectiveFunction& obj, int budget, std::uint64_t s) {
            return registry[m].fn(obj, budget, s);
          },
          evals, seed);
    });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t m = 0; m < registry.size(); ++m) {
      std::vector<double> ratios, speedups, costs, failures;
      for (int s = 0; s < seeds; ++s) {
        const auto& r = results[m * seeds + s];
        const double best = r.best_ground_truth;
        ratios.push_back(std::isfinite(best) ? best / oracle.objective : 99.0);
        speedups.push_back(std::isfinite(best) ? default_tta / best : 0.0);
        costs.push_back(r.search_cost_hours);
        int failed = 0;
        for (const auto& t : r.tuning.trials) failed += !t.outcome.feasible;
        failures.push_back(static_cast<double>(failed));
      }
      all_ratios[m].push_back(util::mean(ratios));
      rows.push_back({registry[m].name, bench::fmt_ratio(util::mean(ratios)),
                      bench::fmt_ratio(util::mean(speedups)),
                      util::fmt(util::mean(costs)),
                      util::fmt(util::mean(failures), 3)});
    }
    rows.push_back({"(default)", bench::fmt_ratio(default_tta / oracle.objective),
                    "1", "0", "0"});
    bench::print_table(
        "R-T3  " + workload_name + "  budget=" + std::to_string(evals) +
            " evals, seeds=" + std::to_string(seeds) +
            " (oracle TTA = " + util::fmt(oracle.objective / 3600.0) + " h)",
        {"method", "vs-oracle", "speedup-vs-default", "search-hours",
         "failed-runs"},
        rows);
  }

  std::vector<std::vector<std::string>> summary;
  for (std::size_t m = 0; m < registry.size(); ++m) {
    summary.push_back(
        {registry[m].name, bench::fmt_ratio(util::geomean(all_ratios[m]))});
  }
  bench::print_table("R-T3  geomean of vs-oracle across workloads",
                     {"method", "geomean-vs-oracle"}, summary);
  return 0;
}
