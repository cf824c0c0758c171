// Experiment R-F5 — acquisition-function ablation.
//
// The same BO loop with EI, log-EI, UCB, PI and EI-per-cost. Reported per
// workload: mean final quality vs oracle, mean evaluations needed to get
// within 1.2x of the oracle (budget+1 when never reached), and search cost.
// Expected shape: log-EI ~ EI >= UCB > PI on quality; EI-per-cost trades a
// little quality for cheaper searches.
//
//   ./build/bench/bench_acquisition [--seeds=3] [--evals=30]
//       [--workloads=mf-recsys,cnn-cifar]
//
// Any other flag is rejected (exit 2).
#include <iostream>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"seeds", "evals",
                                                "workloads"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::cerr << *error << "\n";
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int evals = static_cast<int>(args.get_int("evals", 30));
  const std::vector<std::string> workloads =
      util::split(args.get("workloads", "mf-recsys,cnn-cifar"), ',');
  const std::vector<core::AcquisitionKind> kinds = {
      core::AcquisitionKind::kEi, core::AcquisitionKind::kLogEi,
      core::AcquisitionKind::kUcb, core::AcquisitionKind::kPi,
      core::AcquisitionKind::kEiPerCost};

  for (const std::string& workload_name : workloads) {
    const wl::Workload& workload = wl::workload_by_name(workload_name);
    const bench::Oracle oracle =
        bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

    std::vector<bench::ReplicateResult> results(kinds.size() * seeds);
    bench::parallel_tasks(results.size(), [&](std::size_t task) {
      const std::size_t k = task / seeds;
      const std::uint64_t seed = 700 + task % seeds;
      results[task] = bench::run_replicate(
          workload, wl::Objective::kTimeToAccuracy,
          [&](core::ObjectiveFunction& obj, int budget, std::uint64_t s) {
            core::BoOptions options = bench::bench_bo_options(s, budget);
            options.acquisition = kinds[k];
            core::BoTuner tuner(obj, options);
            return tuner.tune();
          },
          evals, seed);
    });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> ratios, evals_to_12, hours;
      for (int s = 0; s < seeds; ++s) {
        const auto& r = results[k * seeds + s];
        ratios.push_back(std::isfinite(r.best_ground_truth)
                             ? r.best_ground_truth / oracle.objective
                             : 99.0);
        hours.push_back(r.search_cost_hours);
        double reach = evals + 1;
        for (std::size_t i = 0; i < r.tuning.incumbent_curve.size(); ++i) {
          // Incumbent curve is noisy-objective; scale-compare to oracle.
          if (r.tuning.incumbent_curve[i] <= 1.2 * oracle.objective) {
            reach = static_cast<double>(i + 1);
            break;
          }
        }
        evals_to_12.push_back(reach);
      }
      rows.push_back({core::to_string(kinds[k]),
                      bench::fmt_ratio(util::mean(ratios)),
                      util::fmt(util::mean(evals_to_12), 3),
                      util::fmt(util::mean(hours))});
    }
    bench::print_table(
        "R-F5  " + workload_name + "  acquisition ablation (budget=" +
            std::to_string(evals) + ", seeds=" + std::to_string(seeds) + ")",
        {"acquisition", "vs-oracle", "evals-to-1.2x", "search-hours"}, rows);
  }
  return 0;
}
