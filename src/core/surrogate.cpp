#include "core/surrogate.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/chaos.h"
#include "util/log.h"

namespace autodml::core {

namespace {

std::unique_ptr<gp::GaussianProcess> make_gp(std::size_t dim,
                                             const gp::GpOptions& options) {
  return std::make_unique<gp::GaussianProcess>(
      std::make_unique<gp::Matern52Ard>(dim), options);
}

}  // namespace

SurrogateModel::SurrogateModel(const conf::ConfigSpace& space,
                               SurrogateOptions options, std::uint64_t seed,
                               AcquisitionKind acquisition)
    : space_(&space),
      options_(options),
      rng_(seed),
      models_cost_(acquisition == AcquisitionKind::kEiPerCost) {}

void SurrogateModel::update(std::span<const Trial> trials) {
  ADML_SPAN("surrogate.update");
  ADML_COUNT("surrogate.updates", 1);
  // Training sets, encoded straight into row-major matrices: each starts
  // with a row per trial and is trimmed to the rows its targets fill.
  const std::size_t dim = space_->encoded_dimension();
  math::Matrix ok_x(trials.size(), dim), all_x(trials.size(), dim);
  math::Matrix cost_x(models_cost_ ? trials.size() : 0, dim);
  std::vector<double> ok_y, feas_y, cost_y;
  std::vector<double> real_y;  // completed runs only: defines the incumbent
  for (const Trial& t : trials) {
    // A trial is encoded once, into the first set it joins; later sets copy
    // that row.
    std::span<const double> encoded;
    const auto add = [&](math::Matrix& x, std::vector<double>& y,
                         double target) {
      const std::span<double> row = x.row(y.size());
      if (encoded.empty()) {
        space_->encode_into(t.config, row);
      } else {
        std::copy(encoded.begin(), encoded.end(), row.begin());
      }
      encoded = row;
      y.push_back(target);
    };
    if (t.fantasized) {
      // Kriging-believer fantasy for a pending evaluation: a belief about
      // the objective, not an observation. It conditions the objective
      // posterior so batch proposals repel each other, but a fabricated
      // `feasible = true` label or zero-cost sample would corrupt the
      // feasibility and cost models (and a posterior mean below the best
      // real run would fake an incumbent), so everything else skips it.
      if (std::isfinite(t.outcome.objective)) {
        add(ok_x, ok_y, std::log(std::max(t.outcome.objective, 1e-9)));
      }
      continue;
    }
    // Transient failures (preemption, infra crash) say nothing about the
    // configuration — training on them would carve phantom infeasible
    // regions out of the search space, so they are excluded here.
    if (!t.outcome.transient_failure()) {
      add(all_x, feas_y, t.outcome.feasible ? 0.0 : 1.0);
    }
    if (t.succeeded()) {
      add(ok_x, ok_y, std::log(std::max(t.outcome.objective, 1e-9)));
      real_y.push_back(ok_y.back());
    } else if (t.outcome.aborted &&
               std::isfinite(t.outcome.projected_objective)) {
      // Censored pseudo-observation: the early-termination projection of
      // where the killed run was heading. Without this, aborted trials
      // teach the objective model nothing and the tuner re-proposes near
      // them.
      add(ok_x, ok_y, std::log(std::max(t.outcome.projected_objective, 1e-9)));
    }
    if (models_cost_ && !t.outcome.aborted && t.outcome.spent_seconds > 0.0) {
      add(cost_x, cost_y, std::log(t.outcome.spent_seconds));
    }
  }
  ok_x.resize_rows(ok_y.size());
  all_x.resize_rows(feas_y.size());
  cost_x.resize_rows(cost_y.size());

  const double failures =
      std::count(feas_y.begin(), feas_y.end(), 1.0);
  feasible_fraction_ =
      feas_y.empty() ? 1.0
                     : 1.0 - failures / static_cast<double>(feas_y.size());

  // Refit scheduling: a full hyperparameter optimization runs every
  // hyperopt_every updates (and always on the first fit of a model);
  // between rounds the evidence trigger below can force one early.
  ++updates_since_hyperopt_;
  const bool first_fit = !objective_gp_ || !objective_gp_->is_fitted();
  bool full_hyperopt =
      first_fit ||
      updates_since_hyperopt_ >= std::max(1, options_.hyperopt_every);

  // Chaos seam: an armed "surrogate.refit" fault makes every fit attempt
  // of this update throw, driving the escalation ladder deterministically.
  const bool injected_fault = util::chaos::fault_requested("surrogate.refit");

  // The complete (re)fit flow, evidence-based trigger included. Any
  // GP failure (non-PD Gram past the jitter ladder, NaN hyperopt)
  // surfaces here as an exception.
  const auto run_fits = [&] {
    if (injected_fault) {
      throw std::runtime_error("surrogate: injected refit fault");
    }
    fit_or_append(objective_gp_, ok_x, ok_y, full_hyperopt);
    if (models_cost_) fit_or_append(cost_gp_, cost_x, cost_y, full_hyperopt);
    // Feasibility model only earns its keep once failures exist; a constant
    // label vector would just burn a GP fit.
    if (failures > 0 && feas_y.size() >= 3) {
      fit_or_append(feasibility_gp_, all_x, feas_y, full_hyperopt);
    } else {
      feasibility_gp_.reset();
    }
    // Evidence-based trigger: the per-point negative LML is memoized state
    // the incremental paths keep current, so this costs O(1). When stale
    // hyperparameters stop explaining the growing data set — degradation
    // beyond the configured budget in nats/point — a full hyperopt runs
    // now instead of waiting out the schedule.
    if (!full_hyperopt && options_.refit_nlml_degradation > 0.0 &&
        baseline_valid_ && objective_gp_ && objective_gp_->is_fitted()) {
      const double nlml_per_point =
          -objective_gp_->log_marginal_likelihood() /
          static_cast<double>(objective_gp_->num_points());
      if (nlml_per_point - baseline_nlml_per_point_ >
          options_.refit_nlml_degradation) {
        ADML_COUNT("surrogate.refit_evidence", 1);
        full_hyperopt = true;
        fit_or_append(objective_gp_, ok_x, ok_y, true);
        if (models_cost_) fit_or_append(cost_gp_, cost_x, cost_y, true);
        if (feasibility_gp_) {
          fit_or_append(feasibility_gp_, all_x, feas_y, true);
        }
      }
    }
  };

  // Degradation ladder: a failed fit discards the (suspect) model set and
  // retries from scratch with the noise floor raised — more observation
  // noise absorbs the numerical pathology that broke the factorization.
  // When every escalation fails too, the surrogate parks in degraded mode
  // rather than taking the tuner down; the next update() tries again.
  bool fitted = false;
  const int max_attempts = 1 + std::max(0, options_.max_noise_escalations);
  for (int attempt = 0; attempt < max_attempts && !fitted; ++attempt) {
    try {
      run_fits();
      fitted = true;
    } catch (const std::exception& e) {
      drop_models();
      full_hyperopt = true;
      ADML_WARN << "surrogate: fit attempt " << attempt + 1 << "/"
                << max_attempts << " failed (" << e.what() << ")";
      if (attempt + 1 < max_attempts) {
        ADML_COUNT("surrogate.jitter_escalations", 1);
        options_.gp.initial_noise =
            std::min(options_.gp.noise_hi,
                     options_.gp.initial_noise *
                         options_.noise_escalation_factor);
        options_.gp.noise_lo =
            std::min(options_.gp.noise_hi,
                     options_.gp.noise_lo * options_.noise_escalation_factor);
      }
    }
  }

  // Degraded-mode transitions only: these must never touch the metrics
  // snapshot of a healthy run (the golden-run harness diffs it).
  if (!fitted && !degraded_) {
    degraded_ = true;
    ADML_COUNT("surrogate.degraded_entries", 1);
    ADML_GAUGE_SET("tuner.degraded_mode", 1);
    ADML_WARN << "surrogate: entering degraded mode (no usable posterior); "
                 "tuner falls back to quasi-random proposals";
  } else if (fitted && degraded_) {
    degraded_ = false;
    ADML_COUNT("surrogate.recoveries", 1);
    ADML_GAUGE_SET("tuner.degraded_mode", 0);
    ADML_WARN << "surrogate: recovered from degraded mode";
  }

  if (fitted && full_hyperopt) {
    updates_since_hyperopt_ = 0;
    ADML_COUNT("surrogate.hyperopt_scheduled", 1);
    if (objective_gp_ && objective_gp_->is_fitted()) {
      baseline_nlml_per_point_ =
          -objective_gp_->log_marginal_likelihood() /
          static_cast<double>(objective_gp_->num_points());
      baseline_valid_ = true;
    } else {
      baseline_valid_ = false;
    }
  } else if (fitted) {
    ADML_COUNT("surrogate.refit_skipped", 1);
  }

  if (!real_y.empty()) {
    incumbent_log_ = *std::min_element(real_y.begin(), real_y.end());
  }
  // The refreshed model set (or the decision to degrade) is now the state
  // the tuner resumes from; a crash here must be recoverable from the
  // journal alone.
  ADML_CRASH_POINT("surrogate.refit_commit");
}

void SurrogateModel::drop_models() {
  objective_gp_.reset();
  feasibility_gp_.reset();
  cost_gp_.reset();
  baseline_valid_ = false;
}

void SurrogateModel::fit_or_append(
    std::unique_ptr<gp::GaussianProcess>& model, const math::Matrix& x,
    std::span<const double> y, bool full_hyperopt) {
  const std::size_t n = y.size();
  if (n < 2) {
    model.reset();
    return;
  }
  // Incremental path: unchanged hyperparameters (not a hyperopt round) and
  // the new training set is the one the GP holds plus exactly one appended
  // row. Encodings are deterministic functions of the configs, so exact
  // double-equality is the right prefix test.
  if (model && model->is_fitted() && !full_hyperopt &&
      model->num_points() + 1 == n) {
    const std::span<const double> held_x = model->training_inputs().data();
    const std::span<const double> held_y = model->training_targets();
    if (std::equal(held_x.begin(), held_x.end(), x.data().begin()) &&
        std::equal(held_y.begin(), held_y.end(), y.begin())) {
      model->append_observation(x.row(n - 1), y[n - 1]);
      return;
    }
  }
  if (!model) model = make_gp(space_->encoded_dimension(), options_.gp);
  if (full_hyperopt) {
    model->fit(x, y, rng_);
  } else {
    model->refit(x, y);
  }
}

SurrogateScore SurrogateModel::score(const conf::Config& config) const {
  if (!ready()) throw std::logic_error("SurrogateModel: not ready");
  const math::Vec x = space_->encode(config);
  SurrogateScore out;
  score_batch(x, std::span(&out, 1));
  return out;
}

void SurrogateModel::score_batch(std::span<const double> rows,
                                 std::span<SurrogateScore> out) const {
  if (!ready()) throw std::logic_error("SurrogateModel: not ready");
  std::vector<gp::GpPrediction> pred(out.size());
  objective_gp_->predict_batch(rows, pred);
  for (std::size_t r = 0; r < out.size(); ++r) {
    out[r].mean = pred[r].mean;
    out[r].variance = pred[r].variance;
  }
  if (feasibility_gp_ && feasibility_gp_->is_fitted()) {
    // Regression on the 0/1 label; clamp the posterior mean into a
    // probability. Cheap and well-behaved for spatially coherent failures.
    feasibility_gp_->predict_batch(rows, pred);
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r].prob_feasible = std::clamp(1.0 - pred[r].mean, 0.02, 1.0);
    }
  } else {
    for (SurrogateScore& s : out) {
      s.prob_feasible = std::clamp(feasible_fraction_, 0.02, 1.0);
    }
  }
  if (cost_gp_ && cost_gp_->is_fitted()) {
    cost_gp_->predict_batch(rows, pred);
    for (std::size_t r = 0; r < out.size(); ++r) {
      out[r].log_cost = pred[r].mean;
    }
  } else {
    for (SurrogateScore& s : out) s.log_cost = 0.0;
  }
}

math::Vec SurrogateModel::ard_relevance() const {
  if (!ready()) return {};
  const auto* ard =
      dynamic_cast<const gp::ArdKernelBase*>(&objective_gp_->kernel());
  if (ard == nullptr) return {};
  return ard->inverse_lengthscales();
}

}  // namespace autodml::core
