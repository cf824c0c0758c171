// Experiment R-F7 — knob importance per workload.
//
// After a tuning session, the objective GP's ARD inverse lengthscales say
// which knobs the response surface actually moves along. Expected shape:
// communication knobs (servers, compression, arch) dominate for the
// embedding-heavy workloads (mf-recsys, word2vec-text); batch/learning-rate
// and instance type dominate for the compute-heavy ones (cnn, resnet).
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "core/sensitivity.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"evals"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int evals = static_cast<int>(args.get_int("evals", 40));

  const auto& suite = wl::workload_suite();
  std::vector<std::vector<core::ParamImportance>> importances(suite.size());
  bench::parallel_tasks(suite.size(), [&](std::size_t i) {
    wl::Evaluator evaluator(suite[i], 21 + i);
    wl::EvaluatorObjective objective(evaluator);
    core::BoOptions options = bench::bench_bo_options(21 + i, evals);
    core::BoTuner tuner(objective, options);
    tuner.tune();
    const math::Vec relevance = tuner.surrogate().ard_relevance();
    if (!relevance.empty()) {
      importances[i] =
          core::ard_param_importance(evaluator.space(), relevance);
    }
  });

  for (std::size_t i = 0; i < suite.size(); ++i) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& p : importances[i]) {
      rows.push_back({p.param, util::fmt(p.importance, 3)});
    }
    bench::print_table("R-F7  " + suite[i].name + "  ARD knob importance",
                       {"param", "importance"}, rows);
  }
  return 0;
}
