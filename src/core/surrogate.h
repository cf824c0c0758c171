// Surrogate model over the encoded configuration space.
//
// Up to three coupled GPs, mirroring what the paper's tuner must track:
//   - objective GP on log(objective) of successful trials — the response
//     surface spans decades, so the log transform is what makes a
//     stationary kernel plausible;
//   - feasibility GP on a 0/1 failure indicator over all *deterministic*
//     trials (OOM and divergence regions are spatially coherent, so the
//     tuner can learn to avoid paying for them; transient failures —
//     preemptions, infra crashes — are environment noise and excluded);
//   - cost GP on log(evaluation cost) of completed trials, feeding the
//     EI-per-cost acquisition (CherryPick-style cost awareness). It is the
//     only reader of the cost model, so the model exists only when the
//     surrogate is built for AcquisitionKind::kEiPerCost; under every other
//     acquisition no cost GP is fitted, appended or predicted.
// Aborted runs contribute to feasibility (they did not crash) but not to
// the objective model (their final value is censored).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "config/config_space.h"
#include "core/acquisition.h"
#include "core/tuner_types.h"
#include "gp/gp.h"

namespace autodml::core {

struct SurrogateOptions {
  /// Refit GP hyperparameters every k updates (1 = always). Factorization
  /// with existing hyperparameters happens on every update regardless.
  /// Between hyperopt rounds, an update that appends exactly one trial to a
  /// GP's training set takes the O(n^2) rank-1 Cholesky append instead of a
  /// full refit.
  int hyperopt_every = 1;
  /// Evidence-based trigger: between scheduled rounds, a full hyperopt
  /// fires anyway when the objective model's per-point negative log
  /// marginal likelihood has degraded by more than this many nats since
  /// the last hyperopt (stale hyperparameters stop explaining the data).
  /// <= 0 disables the trigger.
  double refit_nlml_degradation = 0.1;
  /// Graceful degradation: when a GP fit throws (non-PD Gram after
  /// the Cholesky jitter ladder is exhausted, NaN in hyperopt), the model
  /// set is rebuilt from scratch with the noise floor raised by this
  /// factor, up to `max_noise_escalations` times, before the surrogate
  /// enters degraded mode (ready() == false until a later update fits).
  double noise_escalation_factor = 100.0;
  int max_noise_escalations = 2;
  gp::GpOptions gp;
};

struct SurrogateScore {
  double mean = 0.0;          // posterior mean of log objective
  double variance = 0.0;
  double prob_feasible = 1.0;
  /// Posterior mean of log evaluation cost; stays 0 when the surrogate
  /// has no cost model (see SurrogateModel::models_cost).
  double log_cost = 0.0;
};

class SurrogateModel {
 public:
  /// `acquisition` is the acquisition the model will be scored for: it
  /// decides whether a cost GP is maintained (kEiPerCost only).
  SurrogateModel(const conf::ConfigSpace& space, SurrogateOptions options,
                 std::uint64_t seed,
                 AcquisitionKind acquisition = AcquisitionKind::kLogEi);

  /// Rebuild from the full trial history (idempotent).
  void update(std::span<const Trial> trials);

  /// True once at least two successful trials exist (enough to predict).
  bool ready() const { return objective_gp_ && objective_gp_->is_fitted(); }

  /// True while the model is in degraded mode: the last update() exhausted
  /// the noise-escalation ladder without producing a finite fit, so no
  /// posterior is available and the tuner should fall back to quasi-random
  /// proposals. Cleared automatically by the next successful refit.
  bool degraded() const { return degraded_; }

  /// Posterior at a configuration: the one-row case of score_batch.
  /// Requires ready().
  SurrogateScore score(const conf::Config& config) const;

  /// Posterior at each encoded row (row-major, space().encoded_dimension()
  /// wide, one row per entry of `out`). Every entry is bit-identical to
  /// score() of the configuration its row encodes, whatever the batch size.
  /// Requires ready().
  void score_batch(std::span<const double> rows,
                   std::span<SurrogateScore> out) const;

  /// Best (lowest) observed log objective. Requires ready().
  double incumbent_log() const { return incumbent_log_; }

  /// ARD relevance per encoded coordinate of the objective GP (empty until
  /// ready()); used by the sensitivity experiment.
  math::Vec ard_relevance() const;

  const conf::ConfigSpace& space() const { return *space_; }

  /// True when the model fits a cost GP (built for kEiPerCost).
  bool models_cost() const { return models_cost_; }

 private:
  /// Fit `model` on (x, y), or drop it below two points. When the model's
  /// own training set is (x, y) minus the last row and this is not a
  /// hyperopt round, the row is appended incrementally instead.
  void fit_or_append(std::unique_ptr<gp::GaussianProcess>& model,
                     const math::Matrix& x, std::span<const double> y,
                     bool full_hyperopt);

  /// Discard every fitted model (partial state left behind by a failed fit
  /// is not trustworthy).
  void drop_models();

  const conf::ConfigSpace* space_;
  SurrogateOptions options_;
  util::Rng rng_;
  bool models_cost_;
  int updates_since_hyperopt_ = 0;
  /// Objective model's per-point negative LML recorded at the last
  /// hyperopt; reference for the evidence-based refit trigger.
  double baseline_nlml_per_point_ = 0.0;
  bool baseline_valid_ = false;

  std::unique_ptr<gp::GaussianProcess> objective_gp_;
  std::unique_ptr<gp::GaussianProcess> feasibility_gp_;
  std::unique_ptr<gp::GaussianProcess> cost_gp_;
  double incumbent_log_ = 0.0;
  double feasible_fraction_ = 1.0;
  bool degraded_ = false;
};

}  // namespace autodml::core
