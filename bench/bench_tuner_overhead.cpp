// Experiment R-F8 — the tuner's own computational overhead.
//
// Plain timed loops over the two per-iteration costs the tuner adds on top
// of the (dominant) training evaluations: fitting the surrogate and
// maximizing the acquisition, as a function of history size. Each cell is
// the minimum over --reps repetitions (util::Stopwatch), the least noisy
// estimate of a deterministic computation's cost on a shared machine. The
// claim to reproduce: tuner overhead is seconds per iteration even at
// history sizes far beyond a realistic budget — negligible next to
// cluster-hours per evaluation.
//
//   ./build/bench/bench_tuner_overhead [--reps=5]
//
// Any other flag is rejected (exit 2).
#include <algorithm>
#include <functional>
#include <iostream>
#include <limits>

#include "bench_common.h"
#include "core/acquisition_optimizer.h"
#include "core/surrogate.h"
#include "util/arg_parse.h"
#include "util/stopwatch.h"
#include "workloads/objective_adapter.h"

using namespace autodml;

namespace {

std::vector<core::Trial> make_history(wl::Evaluator& evaluator, int n) {
  util::Rng rng(5);
  std::vector<core::Trial> trials;
  for (int i = 0; i < n; ++i) {
    const conf::Config c = evaluator.space().sample_uniform(rng);
    const wl::EvalResult r = evaluator.evaluate_ground_truth(c);
    trials.push_back(wl::to_trial(r, wl::Objective::kTimeToAccuracy));
  }
  return trials;
}

/// Minimum wall time of `body` over `reps` runs, in milliseconds.
double min_ms(int reps, const std::function<void()>& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const util::Stopwatch watch;
    body();
    best = std::min(best, watch.elapsed_ms());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"reps"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::cerr << *error << "\n";
    return 2;
  }
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const wl::Workload& workload = wl::workload_by_name("mlp-tabular");
  wl::Evaluator evaluator(workload, 1);
  std::vector<std::vector<std::string>> rows;

  // Surrogate update: a fresh model fit from scratch on the history.
  core::SurrogateOptions update_options;
  update_options.gp.restarts = 1;
  for (const int n : {10, 20, 40, 80}) {
    const std::vector<core::Trial> history = make_history(evaluator, n);
    bool ready = false;
    const double ms = min_ms(reps, [&] {
      core::SurrogateModel model(evaluator.space(), update_options, 3);
      model.update(history);
      ready = model.ready();
    });
    rows.push_back({"surrogate update", std::to_string(n), util::fmt(ms, 4),
                    ready ? "ready" : "not ready"});
  }

  // Acquisition proposal against a model fit once on the history.
  core::SurrogateOptions acq_options;
  acq_options.gp.restarts = 1;
  for (const int n : {10, 40, 80}) {
    const std::vector<core::Trial> history = make_history(evaluator, n);
    core::SurrogateModel model(evaluator.space(), acq_options, 3);
    model.update(history);
    util::Rng rng(9);
    bool proposed = false;
    const double ms = min_ms(reps, [&] {
      proposed = core::propose_candidate(model, core::AcquisitionKind::kLogEi,
                                         history, rng)
                     .has_value();
    });
    rows.push_back({"acquisition proposal", std::to_string(n),
                    util::fmt(ms, 4), proposed ? "proposed" : "none"});
  }

  // For scale: what one black-box evaluation costs the *host* (the
  // simulated cluster cost is hours; this is the simulation wall time).
  const conf::Config expert =
      wl::default_expert_config(workload, evaluator.space());
  double tta_seconds = 0.0;
  const double ms = min_ms(reps, [&] {
    tta_seconds = evaluator.evaluate_ground_truth(expert).tta_seconds;
  });
  rows.push_back({"simulated evaluation", "-", util::fmt(ms, 4),
                  "tta " + util::fmt(tta_seconds / 3600.0, 2) + " h"});

  bench::print_table("R-F8  tuner overhead on mlp-tabular (min of " +
                         std::to_string(reps) + " reps)",
                     {"operation", "history", "min-ms", "note"}, rows);
  return 0;
}
