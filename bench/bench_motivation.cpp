// Experiment R-T1 — configuration matters.
//
// For every workload: evaluate a space-filling sample of configurations
// (noise-free ground truth) plus the hand "expert default", and report the
// spread of time-to-accuracy: best / median / worst / default, the
// best-vs-worst spread factor, the failure share (OOM + divergence), and
// the speedup left on the table by the default. The paper-typical claim
// this reproduces: the config space spans an order of magnitude or more,
// so automatic tuning has real headroom.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "util/arg_parse.h"

using namespace autodml;

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"sweep"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const auto sweep = static_cast<std::size_t>(args.get_int("sweep", 250));

  std::vector<std::vector<std::string>> rows(wl::workload_suite().size());
  bench::parallel_tasks(rows.size(), [&](std::size_t i) {
    const wl::Workload& workload = wl::workload_suite()[i];
    wl::Evaluator evaluator(workload, 1);
    util::Rng rng(97 + i);
    std::vector<conf::Config> configs =
        conf::latin_hypercube(evaluator.space(), sweep, rng);

    std::vector<double> tta;
    int failures = 0;
    for (const conf::Config& c : configs) {
      const wl::EvalResult r = evaluator.evaluate_ground_truth(c);
      if (r.feasible) {
        tta.push_back(r.tta_seconds / 3600.0);
      } else {
        ++failures;
      }
    }
    const wl::EvalResult expert = evaluator.evaluate_ground_truth(
        wl::default_expert_config(workload, evaluator.space()));
    const util::Summary s = util::summarize(tta);

    rows[i] = {workload.name,
               util::fmt(s.min),
               util::fmt(s.median),
               util::fmt(s.max),
               util::fmt(expert.tta_seconds / 3600.0),
               bench::fmt_ratio(s.max / s.min),
               bench::fmt_ratio(expert.tta_seconds / 3600.0 / s.min),
               util::fmt(100.0 * failures / static_cast<double>(sweep), 3)};
  });

  bench::print_table(
      "R-T1  TTA spread across the configuration space (hours, " +
          std::to_string(sweep) + "-point LHS sweep)",
      {"workload", "best", "median", "worst", "default", "worst/best",
       "default/best", "fail%"},
      rows);
  return 0;
}
