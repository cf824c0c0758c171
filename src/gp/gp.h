// Exact Gaussian-process regression.
//
// The tuner's surrogate. Targets are standardized internally; the noise
// variance is a hyperparameter fitted jointly with the kernel's by maximizing
// the log marginal likelihood (analytic gradients + multi-start
// box-constrained L-BFGS, warm-started from the previous fit). History
// sizes in configuration tuning are small (tens to a few hundred points,
// each one an expensive training-job evaluation), where exact O(n^3)
// inference is the right trade-off; it is the surrogate's only backend.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "gp/kernel.h"
#include "math/cholesky.h"
#include "math/matrix.h"
#include "math/optimize.h"
#include "util/rng.h"

namespace autodml::gp {

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  // latent (noise-free) predictive variance
};

struct GpOptions {
  bool standardize_targets = true;
  bool optimize_hyperparams = true;
  int restarts = 2;             // additional random restarts beyond current
  int max_iterations = 40;      // L-BFGS iterations per start
  /// Bounds for the noise-variance hyperparameter (standardized target
  /// units). The floor keeps hyperopt out of interpolating optima: with
  /// the noise near zero and lengthscales at their lower bound, a model can
  /// explain any labels as isolated spikes, which a converged optimizer
  /// finds and prefers.
  double noise_lo = 1e-6;
  double noise_hi = 1.0;
  double initial_noise = 1e-2;
};

/// Candidates per block of GaussianProcess::predict_batch. A block's
/// scratch is n x kPredictBlock doubles (100 KiB at n = 200), so scoring a
/// pool of any size keeps the cross-covariances cache-resident and the
/// memory bounded; fixed, not an option, because no result depends on it.
inline constexpr std::size_t kPredictBlock = 64;

class GaussianProcess {
 public:
  GaussianProcess(std::unique_ptr<Kernel> kernel, GpOptions options = {});

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess&) = delete;

  /// Fit on rows of X (n x dim) with targets y (n). Optimizes
  /// hyperparameters unless disabled, then factorizes.
  void fit(const math::Matrix& x, std::span<const double> y,
           util::Rng& rng);

  /// Replace the data but keep current hyperparameters (cheap refit used
  /// between full re-optimizations).
  void refit(const math::Matrix& x, std::span<const double> y);

  /// Incremental update: append one observation, extending the existing
  /// Cholesky factor in O(n^2) instead of refactorizing (O(n^3)).
  /// Hyperparameters are kept; the resulting posterior is identical to
  /// refit() on the extended data. Requires is_fitted(). Returns true when
  /// the O(n^2) fast path was taken; false when the extended Gram matrix was
  /// not PD at the stored jitter and a full refactorization ran instead
  /// (the model is consistent either way). In AUTODML_CHECKED builds the
  /// incremental factor is cross-verified against a from-scratch
  /// factorization of the same jittered Gram matrix.
  bool append_observation(std::span<const double> x, double y);

  bool is_fitted() const { return factor_.has_value(); }
  std::size_t num_points() const { return targets_raw_.size(); }

  /// Training inputs (num_points() rows) and raw targets the current
  /// posterior conditions on.
  const math::Matrix& training_inputs() const { return x_; }
  std::span<const double> training_targets() const { return targets_raw_; }

  /// The one-row case of predict_batch.
  GpPrediction predict(std::span<const double> x) const;

  /// Scores the rows in blocks of kPredictBlock. Per block: the
  /// cross-covariance against every training row, one multi-right-hand-side
  /// forward substitution through the Cholesky factor, then mean and
  /// variance, all in one reused scratch. Work is vectorized across the
  /// block's candidates only: each candidate's kernel distances, mean dot
  /// product, substitution and variance run in the per-point order, so its
  /// prediction does not depend on the block or thread it lands in
  /// (pinned against the per-point body in tests/predict_oracle_test.cpp).
  void predict_batch(std::span<const double> rows,
                     std::span<GpPrediction> out) const;

  /// Log marginal likelihood of the current fit (standardized target units).
  double log_marginal_likelihood() const;

  /// Fitted noise variance, in *raw* target units.
  double noise_variance() const;

  const Kernel& kernel() const { return *kernel_; }

  struct LmlResult {
    double value;
    math::Vec grad;  // w.r.t. [kernel log-hypers..., log noise]
  };

  /// Negative LML and analytic gradient at the given packed
  /// log-hyperparameters [kernel..., log noise], on the current training
  /// data. Public as a diagnostic/testing surface (gradient checks). Every
  /// call is a full evaluation counted in `gp.lml_evals`: the L-BFGS fit
  /// never revisits a theta, so nothing is memoized.
  ///
  /// One fused kernel pass per training pair (Kernel::eval_pair, then
  /// Kernel::add_scaled_grad in the gradient pass): no kernel clone and no
  /// per-pair allocation, O(n^2) scratch. Bit-identical to the separate
  /// eval + grad_hyper formulation, which survives only as the test oracle
  /// in tests/lml_oracle_test.cpp.
  LmlResult negative_lml(std::span<const double> packed) const;

  /// Packed log-hyperparameters exactly as the last hyperparameter
  /// optimization in fit() applied them; empty until one ran. Right after
  /// that fit, -negative_lml(fitted_hyperparams()) equals
  /// log_marginal_likelihood() bit for bit (kernel().hyperparams() returns
  /// log(exp(theta)), which may differ from theta in the last bit).
  std::span<const double> fitted_hyperparams() const { return fitted_theta_; }

 private:
  void factorize();
  math::Vec packed_hypers() const;
  void apply_packed(std::span<const double> packed);

  std::unique_ptr<Kernel> kernel_;
  /// Scratch copy negative_lml loads each trial theta into (no per-call
  /// clone); only negative_lml touches it.
  mutable std::unique_ptr<Kernel> lml_kernel_;
  GpOptions options_;
  double log_noise_;
  math::Vec fitted_theta_;  // see fitted_hyperparams()

  math::Matrix x_;
  math::Vec targets_raw_;
  math::Vec targets_std_;  // standardized
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<math::CholeskyFactor> factor_;
  math::Vec alpha_;  // (K + sigma^2 I)^{-1} y_std
};

}  // namespace autodml::gp
