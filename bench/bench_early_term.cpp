// Experiment R-F4 — early-termination ablation.
//
// The same tuner, with and without learning-curve-based early termination,
// on the same budgets and seeds. Reported per workload: final quality
// (vs oracle), total search cost in simulated cluster hours and dollars,
// the fraction of runs that were killed early, and the cost saving. The
// claim to reproduce: killing hopeless runs cuts search cost substantially
// (tens of percent) at equal final quality.
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
  const std::vector<std::string> workloads = util::split(
      args.get("workloads", "logreg-ads,mlp-tabular,resnet-imagenet"), ',');

  for (const std::string& workload_name : workloads) {
    const wl::Workload& workload = wl::workload_by_name(workload_name);
    const bench::Oracle oracle =
        bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

    struct Variant {
      std::string name;
      bool early_term;
    };
    const std::vector<Variant> variants = {{"autodml+ET", true},
                                           {"autodml-noET", false}};

    std::vector<bench::ReplicateResult> results(variants.size() * seeds);
    std::vector<double> aborted_fraction(variants.size() * seeds, 0.0);
    bench::parallel_tasks(results.size(), [&](std::size_t task) {
      const std::size_t v = task / seeds;
      const std::uint64_t seed = 900 + task % seeds;
      results[task] = bench::run_replicate(
          workload, wl::Objective::kTimeToAccuracy,
          [&](core::ObjectiveFunction& obj, int budget, std::uint64_t s) {
            core::BoOptions options = bench::bench_bo_options(s, budget);
            options.early_term.enabled = variants[v].early_term;
            core::BoTuner tuner(obj, options);
            return tuner.tune();
          },
          evals, seed);
      int aborted = 0;
      for (const auto& t : results[task].tuning.trials)
        aborted += t.outcome.aborted;
      aborted_fraction[task] =
          static_cast<double>(aborted) /
          static_cast<double>(results[task].tuning.trials.size());
    });

    std::vector<std::vector<std::string>> rows;
    std::vector<double> cost_by_variant(variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v) {
      std::vector<double> ratios, hours, usd, aborted;
      for (int s = 0; s < seeds; ++s) {
        const auto& r = results[v * seeds + s];
        ratios.push_back(std::isfinite(r.best_ground_truth)
                             ? r.best_ground_truth / oracle.objective
                             : 99.0);
        hours.push_back(r.search_cost_hours);
        usd.push_back(r.search_cost_usd);
        aborted.push_back(aborted_fraction[v * seeds + s]);
      }
      cost_by_variant[v] = util::mean(hours);
      rows.push_back({variants[v].name, bench::fmt_ratio(util::mean(ratios)),
                      util::fmt(util::mean(hours)),
                      util::fmt(util::mean(usd)),
                      util::fmt(100.0 * util::mean(aborted), 3)});
    }
    rows.push_back(
        {"saving%",
         util::fmt(100.0 * (1.0 - cost_by_variant[0] / cost_by_variant[1]), 3),
         "", "", ""});
    bench::print_table("R-F4  " + workload_name +
                           "  early-termination ablation (budget=" +
                           std::to_string(evals) + ")",
                       {"variant", "vs-oracle", "search-hours", "search-usd",
                        "aborted%"},
                       rows);
  }
  return 0;
}
