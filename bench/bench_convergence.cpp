// Experiment R-F2 — search convergence.
//
// Best-found objective (normalized to the oracle) as a function of the
// number of evaluations, per method, averaged over seeds. The shape to
// reproduce: model-based tuners (autodml, cherrypick) reach near-oracle
// within ~20-30 evaluations; random/grid need several times more; greedy
// methods plateau. Series are printed at checkpoints 5,10,15,20,25,30.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

namespace {

double incumbent_at(const core::TuningResult& result, std::size_t evals) {
  if (result.incumbent_curve.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t idx = std::min(evals, result.incumbent_curve.size()) - 1;
  return result.incumbent_curve[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"seeds", "evals", "workloads"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int evals = static_cast<int>(args.get_int("evals", 30));
  const std::vector<std::string> workloads =
      util::split(args.get("workloads", "logreg-ads,mf-recsys,cnn-cifar"), ',');
  const std::vector<std::size_t> checkpoints = {5, 10, 15, 20, 25, 30};

  const auto& registry = baselines::tuner_registry();

  for (const std::string& workload_name : workloads) {
    const wl::Workload& workload = wl::workload_by_name(workload_name);
    const bench::Oracle oracle =
        bench::compute_oracle(workload, wl::Objective::kTimeToAccuracy);

    // methods x seeds replicates in parallel.
    std::vector<bench::ReplicateResult> results(registry.size() * seeds);
    bench::parallel_tasks(results.size(), [&](std::size_t task) {
      const std::size_t m = task / seeds;
      const std::uint64_t seed = 1000 + task % seeds;
      results[task] = bench::run_replicate(
          workload, wl::Objective::kTimeToAccuracy,
          [&](core::ObjectiveFunction& obj, int budget, std::uint64_t s) {
            return registry[m].fn(obj, budget, s);
          },
          evals, seed);
    });

    std::vector<std::vector<std::string>> rows;
    for (std::size_t m = 0; m < registry.size(); ++m) {
      std::vector<std::string> row{registry[m].name};
      for (std::size_t cp : checkpoints) {
        std::vector<double> ratios;
        for (int s = 0; s < seeds; ++s) {
          const double inc = incumbent_at(results[m * seeds + s].tuning, cp);
          ratios.push_back(std::isfinite(inc) ? inc / oracle.objective : 99.0);
        }
        row.push_back(bench::fmt_ratio(util::mean(ratios)));
      }
      rows.push_back(std::move(row));
    }
    bench::print_table(
        "R-F2  " + workload_name +
            "  mean best-found / oracle vs #evaluations (seeds=" +
            std::to_string(seeds) + ")",
        {"method", "@5", "@10", "@15", "@20", "@25", "@30"}, rows);
  }
  return 0;
}
