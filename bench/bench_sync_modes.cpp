// Experiment R-T10 — synchronization-mode crossover.
//
// Fixed cluster and job; sweep the straggler severity and compute the
// noise-free TTA of BSP, ASP, and SSP (bound 4). The shape to reproduce:
// BSP wins on quiet clusters (no staleness penalty), ASP wins under heavy
// stragglers (no barrier), SSP covers the middle band — the reason the
// sync knob exists at all and a direct check that the simulator + the
// statistical model interact correctly.
#include <cstdio>
#include <string_view>

#include "bench_common.h"
#include "ml/convergence.h"
#include "sim/ps_runtime.h"
#include "util/arg_parse.h"

using namespace autodml;

namespace {

double tta_hours(sim::SyncMode mode, int ssp_bound, double straggler_sigma,
                 const wl::Workload& workload) {
  sim::ClusterSpec spec;
  spec.worker_type = "std8";
  spec.server_type = "mem8";
  spec.num_workers = 16;
  spec.num_servers = 4;
  spec.heterogeneity_sigma = 0.05;
  spec.straggler_sigma = straggler_sigma;
  util::Rng rng(3);
  const sim::Cluster cluster = provision(spec, rng);

  sim::JobParams job;
  job.model_bytes = workload.model_bytes;
  job.flops_per_sample = workload.flops_per_sample;
  job.batch_per_worker = 64;
  job.sync = mode;
  job.staleness = ssp_bound;

  util::Rng sim_rng(17);
  sim::PsSimOptions options;
  options.warmup_iterations = 4;
  options.measure_iterations = 24;
  const sim::RuntimeStats stats =
      sim::simulate_ps(cluster, job, sim_rng, options);

  ml::StatModelParams stat = workload.stat;
  stat.eval_noise_sigma = 0.0;
  const double batch =
      ml::effective_batch(mode, spec.num_workers, job.batch_per_worker);
  const double staleness =
      ml::staleness_updates(mode, stats.mean_staleness, spec.num_workers);
  util::Rng noise(1);
  // Evaluate at the mode's own optimal learning rate: the fair comparison.
  const double lr_probe =
      ml::samples_to_target(stat, batch, staleness, 1e-9,
                            sim::Compression::kNone, noise)
          .lr_optimal;
  const auto outcome = ml::samples_to_target(
      stat, batch, staleness, lr_probe, sim::Compression::kNone, noise);
  return outcome.samples_to_target / stats.samples_per_second / 3600.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {"workload"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::fprintf(stderr, "%s\n", error->c_str());
    return 2;
  }
  const std::string workload_name = args.get("workload", "mlp-tabular");
  const wl::Workload& workload = wl::workload_by_name(workload_name);

  const std::vector<double> sigmas = {0.02, 0.1, 0.2, 0.4, 0.8, 1.2};
  std::vector<std::vector<std::string>> rows(sigmas.size());
  bench::parallel_tasks(sigmas.size(), [&](std::size_t i) {
    const double sigma = sigmas[i];
    const double bsp = tta_hours(sim::SyncMode::kBsp, 0, sigma, workload);
    const double ssp = tta_hours(sim::SyncMode::kSsp, 4, sigma, workload);
    const double asp = tta_hours(sim::SyncMode::kAsp, 0, sigma, workload);
    const double best = std::min({bsp, ssp, asp});
    std::string winner = best == bsp ? "bsp" : best == ssp ? "ssp" : "asp";
    rows[i] = {util::fmt(sigma, 3), util::fmt(bsp), util::fmt(ssp),
               util::fmt(asp), winner};
  });

  bench::print_table(
      "R-T10  " + workload_name +
          "  TTA (hours) by sync mode vs straggler severity (16 workers)",
      {"straggler-sigma", "bsp", "ssp(4)", "asp", "winner"}, rows);
  return 0;
}
