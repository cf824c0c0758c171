// Experiment R-P11 — BO inner-loop latency vs. history size.
//
// The tuner's own overhead is dominated by two operations repeated every
// trial: refitting the surrogate on the grown history and scoring the
// acquisition candidate pool. This bench measures both against history size
// n, comparing:
//   (a) the O(n^3) full refactorization against the O(n^2) rank-1
//       incremental update a non-hyperopt round takes (n <= 512);
//   (b) the scalar against the cache-blocked Cholesky factorization on the
//       kernel Gram matrix (all n, up to 4096);
//   (c) per-trial hyperopt against the every-k + evidence-triggered refit
//       schedule, at n = 256;
//   (d) serial against thread-pool acquisition scoring (n <= 1024),
//       asserting the parallel proposal is identical to the serial one;
//   (e) one negative-LML evaluation, value + gradient, at a fresh theta
//       (n <= 1024), and for n <= 256 whether
//       -negative_lml(fitted theta) reproduces log_marginal_likelihood()
//       bit for bit after a short hyperparameter fit;
//   (f) one full default GaussianProcess::fit (three L-BFGS starts) at
//       n = 16, 64 and 256: wall time and negative-LML evaluations.
// Results land in BENCH_inner_loop.json to extend the repo's performance
// trajectory; CI runs `--smoke` and uploads the file as an artifact.
// Non-zero exit when the parallel proposal diverges, the fitted LML
// disagrees with the LML pass, or a default fit spends more than
// kMaxHyperoptEvals LML evaluations.
//
// Usage: bench_inner_loop [--smoke] [--out=BENCH_inner_loop.json]
//                         [--reps=N] [--threads=K] [--candidates=C]
// Any other flag exits 2 with "unknown flag --NAME (did you mean ...?)".
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "config/config_space.h"
#include "core/acquisition_optimizer.h"
#include "core/surrogate.h"
#include "core/tuner_types.h"
#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "obs/metrics.h"
#include "util/arg_parse.h"
#include "util/csv.h"
#include "util/fs.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace autodml;

namespace {

constexpr std::size_t kDim = 6;

/// Ceiling on negative-LML evaluations for one default fit (three L-BFGS
/// starts of at most GpOptions::max_iterations steps). This bench's fits
/// take 145-175; the Adam + Nelder-Mead optimizer L-BFGS replaced took
/// about 500, so a regression to that regime fails loudly.
constexpr std::int64_t kMaxHyperoptEvals = 200;

std::string param_name(std::size_t d) {
  std::string name = "p";
  name += std::to_string(d);
  return name;
}

conf::ConfigSpace make_space() {
  conf::ConfigSpace space;
  for (std::size_t d = 0; d < kDim; ++d) {
    space.add(conf::ParamSpec::continuous(param_name(d), 0.0, 1.0));
  }
  return space;
}

/// Smooth deterministic response over the unit cube (positive: the
/// surrogate trains on its log).
double response(const conf::Config& config) {
  double v = 10.0;
  for (std::size_t d = 0; d < kDim; ++d) {
    const double x = config.get_double(param_name(d));
    v += 3.0 * std::sin(2.0 * (static_cast<double>(d) + 1.0) * x) + 4.0 * x;
  }
  return v;
}

std::vector<core::Trial> make_history(const conf::ConfigSpace& space,
                                      std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Trial> history;
  history.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::Trial t;
    t.config = space.sample_uniform(rng);
    t.outcome.feasible = true;
    t.outcome.objective = response(t.config);
    t.outcome.spent_seconds = 5.0 + t.outcome.objective;
    history.push_back(std::move(t));
  }
  return history;
}

/// Surrogate options with hyperopt disabled: the comparison is pure
/// factorization-vs-append, exactly the non-hyperopt rounds the tuner runs
/// between hyperparameter refits.
core::SurrogateOptions fixed_hyper_options() {
  core::SurrogateOptions options;
  options.hyperopt_every = 1 << 20;
  options.refit_nlml_degradation = 0.0;
  options.gp.optimize_hyperparams = false;
  return options;
}

double mean_ms(const std::vector<double>& ms) {
  return ms.empty() ? 0.0
                    : std::accumulate(ms.begin(), ms.end(), 0.0) /
                          static_cast<double>(ms.size());
}

struct SizeResult {
  std::size_t n = 0;
  // Exact surrogate full-vs-incremental and proposal columns (legacy,
  // gated to the sizes where the O(n^3) cold path stays affordable).
  bool legacy_measured = false;
  double surrogate_full_ms = 0.0;
  double surrogate_incr_ms = 0.0;
  bool propose_measured = false;
  double propose_serial_ms = 0.0;
  double propose_parallel_ms = 0.0;
  bool propose_identical = true;
  // Exact GP refit vs rank-1 append (all sizes).
  double gp_refit_ms = 0.0;
  double gp_append_ms = 0.0;
  // Scalar vs blocked Cholesky on the kernel Gram matrix (all sizes).
  double chol_scalar_ms = 0.0;
  double chol_blocked_ms = 0.0;
  double chol_max_diff = 0.0;
  // Negative LML value + gradient at a fresh theta; fitted-LML identity.
  bool lml_measured = false;
  double lml_ms = 0.0;
  bool lml_checked = false;
  bool lml_identical = true;
  // One full default hyperparameter fit.
  bool hyperopt_measured = false;
  double hyperopt_ms = 0.0;
  std::int64_t hyperopt_evals = 0;
};

/// Mean wall time of one negative_lml call (value + gradient) on n points,
/// each rep at a theta the memo has not seen.
double measure_lml_ms(const math::Matrix& x, std::span<const double> y,
                      int reps) {
  gp::GpOptions gp_options;
  gp_options.optimize_hyperparams = false;
  gp::GaussianProcess model(std::make_unique<gp::Matern52Ard>(kDim),
                            gp_options);
  model.refit(x, y);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    math::Vec theta = model.kernel().hyperparams();
    theta.push_back(std::log(gp_options.initial_noise));
    for (double& t : theta) t += 1e-3 * static_cast<double>(r + 1);
    util::Stopwatch watch;
    const auto result = model.negative_lml(theta);
    ms.push_back(watch.elapsed_ms());
    if (!std::isfinite(result.value)) std::cerr << "warning: LML not finite\n";
  }
  return mean_ms(ms);
}

/// After a short hyperparameter fit, the LML pass at the fitted theta must
/// reproduce the model's own log marginal likelihood bit for bit.
bool fitted_lml_identical(const math::Matrix& x, std::span<const double> y) {
  gp::GpOptions gp_options;
  gp_options.restarts = 0;
  gp_options.max_iterations = 7;
  gp::GaussianProcess model(std::make_unique<gp::Matern52Ard>(kDim),
                            gp_options);
  util::Rng rng(5);
  model.fit(x, y, rng);
  const double from_pass =
      -model.negative_lml(model.fitted_hyperparams()).value;
  const double lml = model.log_marginal_likelihood();
  return std::memcmp(&from_pass, &lml, sizeof(double)) == 0;
}

/// One full fit() with the default GpOptions: wall time, and the
/// negative-LML evaluations it spent (the gp.lml_evals counter).
void measure_hyperopt(const math::Matrix& x, std::span<const double> y,
                      SizeResult& out) {
  gp::GaussianProcess model(std::make_unique<gp::Matern52Ard>(kDim));
  util::Rng rng(7);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.reset();
  registry.enable();
  util::Stopwatch watch;
  model.fit(x, y, rng);
  out.hyperopt_ms = watch.elapsed_ms();
  registry.disable();
  out.hyperopt_measured = true;
  out.hyperopt_evals = registry.counter("gp.lml_evals").value();
}

SizeResult measure(std::size_t n, int reps, int candidates,
                   util::ThreadPool& pool) {
  const conf::ConfigSpace space = make_space();
  const std::vector<core::Trial> history =
      make_history(space, n + static_cast<std::size_t>(reps), 1000 + n);
  SizeResult out;
  out.n = n;
  // Past 512 the O(n^3)-per-rep sections drop to one repetition so the
  // 4096 row finishes in minutes, not hours.
  const int cubic_reps = n > 512 ? 1 : reps;

  math::Matrix x(n, kDim);
  math::Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const math::Vec e = space.encode(history[i].config);
    std::copy(e.begin(), e.end(), x.row(i).begin());
    y[i] = std::log(history[i].outcome.objective);
  }

  // ---- surrogate update: incremental (warm cache) vs full (cold model) ----
  if (n <= 512) {
    out.legacy_measured = true;
    core::SurrogateModel warm(space, fixed_hyper_options(), 1);
    warm.update(std::span(history).subspan(0, n));
    std::vector<double> incr_ms, full_ms;
    for (int r = 0; r < reps; ++r) {
      const auto span =
          std::span(history).subspan(0, n + static_cast<std::size_t>(r) + 1);
      util::Stopwatch watch;
      warm.update(span);  // extends the previous set by exactly one trial
      incr_ms.push_back(watch.elapsed_ms());

      core::SurrogateModel cold(space, fixed_hyper_options(), 1);
      watch.reset();
      cold.update(span);  // what every trial cost before the rank-1 path
      full_ms.push_back(watch.elapsed_ms());
    }
    out.surrogate_incr_ms = mean_ms(incr_ms);
    out.surrogate_full_ms = mean_ms(full_ms);
  }

  // ---- raw GP: refit vs append_observation ----
  {
    gp::GpOptions gp_options;
    gp_options.optimize_hyperparams = false;
    gp::GaussianProcess base(std::make_unique<gp::Matern52Ard>(kDim),
                             gp_options);
    base.refit(x, y);
    const math::Vec x_new = space.encode(history[n].config);
    const double y_new = std::log(history[n].outcome.objective);

    math::Matrix x_ext(n + 1, kDim);
    std::copy(x.data().begin(), x.data().end(), x_ext.data().begin());
    std::copy(x_new.begin(), x_new.end(), x_ext.row(n).begin());
    math::Vec y_ext = y;
    y_ext.push_back(y_new);

    std::vector<double> refit_ms, append_ms;
    for (int r = 0; r < cubic_reps; ++r) {
      gp::GaussianProcess copy(base);  // copy outside the timed region
      util::Stopwatch watch;
      const bool fast = copy.append_observation(x_new, y_new);
      append_ms.push_back(watch.elapsed_ms());
      if (!fast) std::cerr << "warning: append fell back to full refit\n";

      watch.reset();
      base.refit(x_ext, y_ext);
      refit_ms.push_back(watch.elapsed_ms());
      // Restore size n for the next rep (untimed O(n^3) side effect).
      if (r + 1 < cubic_reps) base.refit(x, y);
    }
    out.gp_append_ms = mean_ms(append_ms);
    out.gp_refit_ms = mean_ms(refit_ms);
  }

  // ---- Cholesky: scalar vs blocked on the jittered kernel Gram ----
  {
    gp::Matern52Ard kernel(kDim);
    math::Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = kernel.eval(x.row(i), x.row(j));
        gram(i, j) = v;
        gram(j, i) = v;
      }
      gram(i, i) += 1e-2;
    }
    std::vector<double> scalar_ms, blocked_ms;
    std::optional<math::CholeskyFactor> fs, fb;
    for (int r = 0; r < cubic_reps; ++r) {
      util::Stopwatch watch;
      fs = math::cholesky_scalar(gram);
      scalar_ms.push_back(watch.elapsed_ms());
      watch.reset();
      fb = math::cholesky_blocked(gram);
      blocked_ms.push_back(watch.elapsed_ms());
    }
    out.chol_scalar_ms = mean_ms(scalar_ms);
    out.chol_blocked_ms = mean_ms(blocked_ms);
    if (!fs || !fb) {
      std::cerr << "FAIL: Gram matrix not PD at n=" << n << "\n";
      out.chol_max_diff = 1e300;
    } else {
      out.chol_max_diff = math::Matrix::max_abs_diff(fs->lower, fb->lower);
    }
  }

  // ---- negative LML: value + gradient, fitted-theta identity ----
  if (n <= 1024) {
    out.lml_measured = true;
    // A small-n evaluation takes microseconds; more samples steady the mean.
    const int lml_reps =
        n > 512 ? 1 : reps * std::max(1, 256 / static_cast<int>(n));
    out.lml_ms = measure_lml_ms(x, y, lml_reps);
  }
  if (n <= 256) {
    out.lml_checked = true;
    out.lml_identical = fitted_lml_identical(x, y);
  }
  if (n == 16 || n == 64 || n == 256) measure_hyperopt(x, y, out);

  // ---- acquisition proposal: serial vs pooled, identical winner ----
  if (n <= 1024) {
    out.propose_measured = true;
    core::SurrogateModel model(space, fixed_hyper_options(), 1);
    const auto span = std::span(history).subspan(0, n);
    model.update(span);
    core::AcqOptimizerOptions serial_options;
    serial_options.random_candidates = candidates;
    core::AcqOptimizerOptions pooled_options = serial_options;
    pooled_options.pool = &pool;

    std::vector<double> serial_ms, parallel_ms;
    for (int r = 0; r < reps; ++r) {
      util::Rng rng_a(77 + r), rng_b(77 + r);
      util::Stopwatch watch;
      const auto a = core::propose_candidate(
          model, core::AcquisitionKind::kLogEi, span, rng_a, serial_options);
      serial_ms.push_back(watch.elapsed_ms());
      watch.reset();
      const auto b = core::propose_candidate(
          model, core::AcquisitionKind::kLogEi, span, rng_b, pooled_options);
      parallel_ms.push_back(watch.elapsed_ms());
      if (!a || !b || !(*a == *b)) out.propose_identical = false;
    }
    out.propose_serial_ms = mean_ms(serial_ms);
    out.propose_parallel_ms = mean_ms(parallel_ms);
  }
  return out;
}

/// Wall-clock of 6 consecutive one-trial surrogate updates at n = 256 under
/// a refit schedule: per-trial hyperopt (the old default) vs every-8 with
/// the evidence trigger armed. Hyperopt budget is trimmed so the baseline
/// finishes; both policies share it.
double measure_policy_ms(const conf::ConfigSpace& space,
                         const std::vector<core::Trial>& history,
                         bool scheduled) {
  core::SurrogateOptions options;
  options.gp.optimize_hyperparams = true;
  options.gp.restarts = 0;
  options.gp.max_iterations = 15;
  if (scheduled) {
    options.hyperopt_every = 8;
    options.refit_nlml_degradation = 0.25;
  } else {
    options.hyperopt_every = 1;
  }
  core::SurrogateModel model(space, options, 1);
  model.update(std::span(history).subspan(0, 256));  // warmup, untimed
  util::Stopwatch watch;
  for (std::size_t r = 0; r < 6; ++r) {
    model.update(std::span(history).subspan(0, 257 + r));
  }
  return watch.elapsed_ms();
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  static constexpr std::string_view kFlags[] = {
      "smoke", "reps", "candidates", "threads", "out"};
  if (const auto error = args.unknown_flag(kFlags)) {
    std::cerr << *error << "\n";
    return 2;
  }
  const bool smoke = args.get_bool("smoke", false) || args.has("smoke");
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 3 : 8));
  const int candidates =
      static_cast<int>(args.get_int("candidates", smoke ? 256 : 512));
  const std::size_t threads = static_cast<std::size_t>(args.get_int(
      "threads",
      std::max(2u, std::thread::hardware_concurrency())));
  const std::string out_path = args.get("out", "BENCH_inner_loop.json");

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16, 64, 256}
            : std::vector<std::size_t>{16, 32,  64,   128,  256,
                                       512, 1024, 2048, 4096};

  util::ThreadPool pool(threads);
  bool all_identical = true;
  bool lml_identical = true;
  std::int64_t max_hyperopt_evals = 0;
  util::JsonArray rows;
  std::vector<std::vector<std::string>> table;
  for (std::size_t n : sizes) {
    const SizeResult r = measure(n, reps, candidates, pool);
    all_identical = all_identical && r.propose_identical;
    lml_identical = lml_identical && r.lml_identical;
    max_hyperopt_evals = std::max(max_hyperopt_evals, r.hyperopt_evals);
    const double surrogate_speedup =
        r.surrogate_incr_ms > 0.0 ? r.surrogate_full_ms / r.surrogate_incr_ms
                                  : 0.0;
    const double gp_speedup =
        r.gp_append_ms > 0.0 ? r.gp_refit_ms / r.gp_append_ms : 0.0;
    const double chol_speedup =
        r.chol_blocked_ms > 0.0 ? r.chol_scalar_ms / r.chol_blocked_ms : 0.0;
    util::JsonObject row;
    row["n"] = static_cast<double>(r.n);
    if (r.legacy_measured) {
      row["surrogate_full_ms"] = r.surrogate_full_ms;
      row["surrogate_incremental_ms"] = r.surrogate_incr_ms;
      row["surrogate_speedup"] = surrogate_speedup;
    }
    row["gp_refit_ms"] = r.gp_refit_ms;
    row["gp_append_ms"] = r.gp_append_ms;
    row["gp_speedup"] = gp_speedup;
    row["chol_scalar_ms"] = r.chol_scalar_ms;
    row["chol_blocked_ms"] = r.chol_blocked_ms;
    row["chol_speedup"] = chol_speedup;
    row["chol_max_diff"] = r.chol_max_diff;
    if (r.lml_measured) row["lml_ms"] = r.lml_ms;
    if (r.lml_checked) row["lml_identical"] = r.lml_identical;
    if (r.hyperopt_measured) {
      row["hyperopt_ms"] = r.hyperopt_ms;
      row["hyperopt_evals"] = static_cast<double>(r.hyperopt_evals);
    }
    if (r.propose_measured) {
      row["propose_serial_ms"] = r.propose_serial_ms;
      row["propose_parallel_ms"] = r.propose_parallel_ms;
      row["propose_identical"] = r.propose_identical;
    }
    rows.push_back(util::JsonValue(std::move(row)));
    table.push_back({std::to_string(n),
                     util::fmt(r.gp_refit_ms, 3),
                     util::fmt(r.gp_append_ms, 3),
                     util::fmt(gp_speedup, 3),
                     util::fmt(r.chol_scalar_ms, 3),
                     util::fmt(r.chol_blocked_ms, 3),
                     util::fmt(chol_speedup, 3),
                     r.lml_measured ? util::fmt(r.lml_ms, 3) : "-",
                     r.lml_checked ? (r.lml_identical ? "yes" : "NO") : "-",
                     r.hyperopt_measured ? util::fmt(r.hyperopt_ms, 3) : "-",
                     r.hyperopt_measured ? std::to_string(r.hyperopt_evals)
                                         : "-",
                     r.propose_measured
                         ? (r.propose_identical ? "yes" : "NO")
                         : "-"});
  }

  // Refit-schedule policy comparison at n = 256 (see measure_policy_ms).
  const conf::ConfigSpace policy_space = make_space();
  const std::vector<core::Trial> policy_history =
      make_history(policy_space, 262, 9000);
  const double policy_per_trial_ms =
      measure_policy_ms(policy_space, policy_history, /*scheduled=*/false);
  const double policy_scheduled_ms =
      measure_policy_ms(policy_space, policy_history, /*scheduled=*/true);
  const double policy_speedup = policy_scheduled_ms > 0.0
                                    ? policy_per_trial_ms / policy_scheduled_ms
                                    : 0.0;

  const std::vector<std::string> header = {
      "n",        "gp_full_ms", "gp_incr_ms", "gp_x",
      "chol_scalar_ms", "chol_blocked_ms", "chol_x",
      "lml_ms", "lml_identical",
      "hyperopt_ms", "hyperopt_evals", "identical"};
  std::cout << "\n=== R-P11: BO inner-loop latency (reps=" << reps
            << ", threads=" << threads << ", candidates=" << candidates
            << ") ===\n"
            << util::render_table(header, table);
  std::cout << "csv," << util::join(header, ",") << "\n";
  for (const auto& row : table)
    std::cout << "csv," << util::join(row, ",") << "\n";
  std::cout << "refit schedule at n=256, 6 trials: per-trial hyperopt "
            << util::fmt(policy_per_trial_ms, 4) << " ms, every-8+evidence "
            << util::fmt(policy_scheduled_ms, 4) << " ms ("
            << util::fmt(policy_speedup, 3) << "x)\n";

  util::JsonObject doc;
  doc["bench"] = "inner_loop";
  doc["smoke"] = smoke;
  doc["reps"] = reps;
  doc["acq_threads"] = static_cast<double>(threads);
  doc["candidates"] = candidates;
  doc["policy_per_trial_hyperopt_ms"] = policy_per_trial_ms;
  doc["policy_scheduled_refit_ms"] = policy_scheduled_ms;
  doc["policy_speedup"] = policy_speedup;
  doc["sizes"] = util::JsonValue(std::move(rows));
  util::write_file_atomic(out_path, util::dump_json(util::JsonValue(std::move(doc)), 2) + "\n");
  std::cout << "wrote " << out_path << "\n";

  if (!all_identical) {
    std::cerr << "FAIL: parallel proposal diverged from serial\n";
    return 1;
  }
  if (!lml_identical) {
    std::cerr << "FAIL: -negative_lml(fitted theta) differs from "
                 "log_marginal_likelihood()\n";
    return 1;
  }
  if (max_hyperopt_evals > kMaxHyperoptEvals) {
    std::cerr << "FAIL: a default hyperparameter fit spent "
              << max_hyperopt_evals << " LML evaluations (bound "
              << kMaxHyperoptEvals << ")\n";
    return 1;
  }
  return 0;
}
