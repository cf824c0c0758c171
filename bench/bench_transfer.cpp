// Experiment R-F9 — warm-start transfer across workloads.
//
// History from tuning one workload is re-encoded into a sibling workload's
// space (the spaces share structure; menus differ) and used to warm-start
// the surrogate. Reported over seeds: quality after a small budget and
// evaluations-to-1.3x-oracle, cold vs warm. Expected shape: transfer from a
// *related* workload (cnn -> resnet) cuts the evaluations needed; transfer
// from an unrelated one (word2vec -> resnet) helps less or not at all.
#include <cstdio>
#include <optional>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

namespace {

/// Re-bind trials from a source space to the target space via the shared
/// encoding (menus differ across workloads, so decode snaps to the target's
/// nearest valid values). Objective values come along unchanged — the GP's
/// target standardization absorbs the scale difference.
std::vector<core::Trial> remap_trials(const std::vector<core::Trial>& source,
                                      const conf::ConfigSpace& source_space,
                                      const conf::ConfigSpace& target_space) {
  std::vector<core::Trial> out;
  out.reserve(source.size());
  for (const core::Trial& t : source) {
    core::Trial mapped = t;
    mapped.config = target_space.decode(source_space.encode(t.config));
    out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {
      "seeds", "pilot_evals", "evals", "target", "sources"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const int seeds = static_cast<int>(args.get_int("seeds", 3));
  const int pilot_evals = static_cast<int>(args.get_int("pilot_evals", 25));
  const int evals = static_cast<int>(args.get_int("evals", 12));
  const std::string target_name = args.get("target", "resnet-imagenet");
  const std::vector<std::string> sources =
      util::split(args.get("sources", "cnn-cifar,word2vec-text"), ',');

  const wl::Workload& target = wl::workload_by_name(target_name);
  const bench::Oracle oracle =
      bench::compute_oracle(target, wl::Objective::kTimeToAccuracy);

  struct Variant {
    std::string name;
    std::string source;  // empty = cold
  };
  std::vector<Variant> variants{{"cold", ""}};
  for (const auto& s : sources) variants.push_back({"warm(" + s + ")", s});

  std::vector<bench::ReplicateResult> results(variants.size() * seeds);
  bench::parallel_tasks(results.size(), [&](std::size_t task) {
    const std::size_t v = task / seeds;
    const std::uint64_t seed = 1700 + task % seeds;

    // The pilot evaluator must outlive the target tuning run: warm-start
    // trials reference its configuration space.
    std::optional<wl::Evaluator> pilot_eval;
    std::vector<core::Trial> pilot_trials;
    if (!variants[v].source.empty()) {
      const wl::Workload& source = wl::workload_by_name(variants[v].source);
      pilot_eval.emplace(source, seed);
      wl::EvaluatorObjective pilot_obj(*pilot_eval);
      core::BoOptions pilot_options = bench::bench_bo_options(seed, pilot_evals);
      core::BoTuner pilot(pilot_obj, pilot_options);
      pilot_trials = pilot.tune().trials;
    }

    results[task] = bench::run_replicate(
        target, wl::Objective::kTimeToAccuracy,
        [&](core::ObjectiveFunction& obj, int budget, std::uint64_t s) {
          core::BoOptions options = bench::bench_bo_options(s, budget);
          if (!pilot_trials.empty()) {
            // Remap against the live target space owned by `obj`.
            options.warm_start = remap_trials(pilot_trials,
                                              pilot_eval->space(), obj.space());
            options.initial_design_size = 3;
          }
          core::BoTuner tuner(obj, options);
          return tuner.tune();
        },
        evals, seed);
  });

  std::vector<std::vector<std::string>> rows;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<double> ratios, reach;
    for (int s = 0; s < seeds; ++s) {
      const auto& r = results[v * seeds + s];
      ratios.push_back(std::isfinite(r.best_ground_truth)
                           ? r.best_ground_truth / oracle.objective
                           : 99.0);
      double to_13 = evals + 1;
      for (std::size_t i = 0; i < r.tuning.incumbent_curve.size(); ++i) {
        if (r.tuning.incumbent_curve[i] <= 1.3 * oracle.objective) {
          to_13 = static_cast<double>(i + 1);
          break;
        }
      }
      reach.push_back(to_13);
    }
    rows.push_back({variants[v].name, bench::fmt_ratio(util::mean(ratios)),
                    util::fmt(util::mean(reach), 3)});
  }
  bench::print_table(
      "R-F9  warm-start transfer onto " + target_name + " (budget=" +
          std::to_string(evals) + ", seeds=" + std::to_string(seeds) + ")",
      {"variant", "vs-oracle", "evals-to-1.3x"}, rows);
  return 0;
}
