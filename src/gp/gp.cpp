#include "gp/gp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"

namespace autodml::gp {

namespace {
constexpr double kLog2Pi = 1.8378770664093454836;

void clamp_to_bounds(std::span<double> x, std::span<const double> lo,
                     std::span<const double> hi) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lo[i], hi[i]);
  }
}
}  // namespace

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel,
                                 GpOptions options)
    : kernel_(std::move(kernel)),
      options_(options),
      log_noise_(std::log(options.initial_noise)) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
  lml_kernel_ = kernel_->clone();
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      lml_kernel_(other.lml_kernel_->clone()),
      options_(other.options_),
      log_noise_(other.log_noise_),
      fitted_theta_(other.fitted_theta_),
      x_(other.x_),
      targets_raw_(other.targets_raw_),
      targets_std_(other.targets_std_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      factor_(other.factor_),
      alpha_(other.alpha_) {}

math::Vec GaussianProcess::packed_hypers() const {
  math::Vec packed = kernel_->hyperparams();
  packed.push_back(log_noise_);
  return packed;
}

void GaussianProcess::apply_packed(std::span<const double> packed) {
  kernel_->set_hyperparams(packed.subspan(0, packed.size() - 1));
  log_noise_ = packed.back();
  fitted_theta_.assign(packed.begin(), packed.end());
}

GaussianProcess::LmlResult GaussianProcess::negative_lml(
    std::span<const double> packed) const {
  ADML_COUNT("gp.lml_evals", 1);

  // The scratch kernel carries the trial hyperparameters so the public
  // state stays untouched; set_hyperparams reuses its storage.
  lml_kernel_->set_hyperparams(packed.subspan(0, packed.size() - 1));
  const Kernel& k = *lml_kernel_;
  const double noise_var = std::exp(packed.back());

  // Fused pass 1: each lower-triangle pair's Gram entry and gradient
  // coefficient from one kernel evaluation, stored row-major for pass 2.
  const std::size_t n = targets_std_.size();
  math::Matrix gram(n, n);
  std::vector<Kernel::PairTerms> pairs(n * (n + 1) / 2);
  for (std::size_t i = 0, p = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      pairs[p] = k.eval_pair(x_.row(i), x_.row(j));
      const double v = pairs[p].value;
      AUTODML_CHECK(std::isfinite(v),
                    "GP kernel produced non-finite value " +
                        std::to_string(v) + " for training pair (" +
                        std::to_string(i) + "," + std::to_string(j) + ")");
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }

  LmlResult out;
  out.grad.assign(packed.size(), 0.0);
  math::CholeskyFactor factor;
  try {
    factor = math::cholesky_with_jitter(gram);
  } catch (const std::runtime_error&) {
    out.value = 1e100;  // reject this hyperparameter point
    return out;
  }
  const math::Vec alpha = factor.solve(targets_std_);
  const double fit_term = 0.5 * math::dot(targets_std_, alpha);
  const double lml = -fit_term - 0.5 * factor.log_det() -
                     0.5 * static_cast<double>(n) * kLog2Pi;
  out.value = -lml;

  // Gradient: dLML/dtheta = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta).
  // K^{-1} = L^{-T} L^{-1} from the triangular inverse of the existing
  // factor (~n^3/3 flops for inverse + symmetric product) instead of n
  // unit-vector solves (~2n^3). Only the lower half is needed: both W and
  // dK/dtheta are symmetric, so each off-diagonal pair contributes twice.
  // Rows of L^{-T} are columns of L^{-1}: the inner product walks two
  // contiguous rows (same terms, same order) instead of two strided columns.
  const math::Matrix linv_t = factor.lower_inverse().transposed();
  math::Matrix kinv_lower(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t kk = i; kk < n; ++kk)
        acc += linv_t(i, kk) * linv_t(j, kk);
      kinv_lower(i, j) = acc;
    }
  }
  // Fused pass 2: same pair-major accumulation, reusing pass 1's terms.
  const std::size_t n_kernel = packed.size() - 1;
  for (std::size_t i = 0, p = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++p) {
      const double w = alpha[i] * alpha[j] - kinv_lower(i, j);
      const double pair_weight = (i == j) ? 1.0 : 2.0;
      // Negative LML: -0.5 * pair_weight * w * dk/dtheta per kernel hyper.
      k.add_scaled_grad(x_.row(i), x_.row(j), pairs[p],
                        -0.5 * pair_weight * w, out.grad);
      if (i == j) out.grad[n_kernel] += -0.5 * w * noise_var;
    }
  }
  return out;
}

void GaussianProcess::factorize() {
  const std::size_t n = targets_std_.size();
  const double noise_var = std::exp(log_noise_);
  math::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = kernel_->eval(x_.row(i), x_.row(j));
      AUTODML_CHECK(std::isfinite(v),
                    "GP kernel produced non-finite value " +
                        std::to_string(v) + " for training pair (" +
                        std::to_string(i) + "," + std::to_string(j) + ")");
      gram(i, j) = v;
      gram(j, i) = v;
    }
    gram(i, i) += noise_var;
  }
  factor_ = math::cholesky_with_jitter(gram);
  alpha_ = factor_->solve(targets_std_);
}

void GaussianProcess::refit(const math::Matrix& x, std::span<const double> y) {
  ADML_SPAN("gp.refit", "n", static_cast<std::int64_t>(x.rows()));
  if (x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess: X/y size mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("GaussianProcess: empty training set");
  if (x.cols() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess: input dimension mismatch");
  math::check_finite(x.data(), "GP training inputs");
  math::check_finite(y, "GP training targets");
  x_ = x;
  targets_raw_.assign(y.begin(), y.end());
  if (options_.standardize_targets) {
    y_mean_ = util::mean(y);
    const double sd = util::stddev(y);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  } else {
    y_mean_ = 0.0;
    y_scale_ = 1.0;
  }
  targets_std_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    targets_std_[i] = (y[i] - y_mean_) / y_scale_;
  }
  factorize();
}

bool GaussianProcess::append_observation(std::span<const double> x, double y) {
  ADML_SPAN("gp.append", "n", static_cast<std::int64_t>(targets_raw_.size()));
  if (!factor_)
    throw std::logic_error("GaussianProcess: append_observation before fit");
  if (x.size() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess: input dimension mismatch");
  math::check_finite(x, "GP appended input");
  if (!std::isfinite(y))
    throw std::invalid_argument("GaussianProcess: non-finite target");

  const std::size_t n = targets_raw_.size();
  const double noise_var = std::exp(log_noise_);
  math::Vec col(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = kernel_->eval(x_.row(i), x);
    AUTODML_CHECK(std::isfinite(v),
                  "GP kernel produced non-finite value " + std::to_string(v) +
                      " for appended pair (" + std::to_string(i) + ")");
    col[i] = v;
  }
  const double diag = kernel_->eval(x, x) + noise_var;

  math::Matrix xe(n + 1, x_.cols());
  std::copy(x_.data().begin(), x_.data().end(), xe.data().begin());
  std::copy(x.begin(), x.end(), xe.row(n).begin());
  x_ = std::move(xe);
  targets_raw_.push_back(y);

  // Standardization statistics shift with the new target; the Gram matrix
  // does not depend on them, so only alpha needs recomputing.
  if (options_.standardize_targets) {
    y_mean_ = util::mean(targets_raw_);
    const double sd = util::stddev(targets_raw_);
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  }
  targets_std_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    targets_std_[i] = (targets_raw_[i] - y_mean_) / y_scale_;
  }

  if (!factor_->append_row(col, diag)) {
    // Extended matrix not PD at the stored jitter (new point nearly
    // duplicates an old one): pay the full jitter-adaptive refactorization.
    ADML_COUNT("gp.append_refactorized", 1);
    factorize();
    return false;
  }
  ADML_COUNT("gp.append_fast", 1);
#if AUTODML_CHECKED_ENABLED
  // Cross-verify the incremental factor against a from-scratch
  // factorization of the same jittered Gram matrix (O(n^3), checked builds
  // only).
  {
    math::Matrix gram(n + 1, n + 1);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = kernel_->eval(x_.row(i), x_.row(j));
        gram(i, j) = v;
        gram(j, i) = v;
      }
      gram(i, i) += noise_var + factor_->jitter;
    }
    // Compare against the scalar path specifically: append_row replays its
    // recurrence bit-for-bit, while the blocked path (which cholesky()
    // would dispatch to at this size) differs in summation order.
    const auto full = math::cholesky_scalar(gram);
    AUTODML_CHECK(full.has_value(),
                  "GP incremental update: full factorization failed where "
                  "the rank-1 append succeeded");
    const double diff = math::Matrix::max_abs_diff(full->lower, factor_->lower);
    AUTODML_CHECK(diff <= 1e-8,
                  "GP incremental Cholesky factor diverges from full "
                  "refactorization by " + std::to_string(diff));
  }
#endif
  alpha_ = factor_->solve(targets_std_);
  return true;
}

void GaussianProcess::fit(const math::Matrix& x, std::span<const double> y,
                          util::Rng& rng) {
  ADML_SPAN("gp.fit", "n", static_cast<std::int64_t>(x.rows()));
  refit(x, y);
  if (!options_.optimize_hyperparams || y.size() < 3) return;
  ADML_SPAN("gp.hyperopt", "n", static_cast<std::int64_t>(x.rows()));
  ADML_COUNT("gp.hyperopt_rounds", 1);

  auto [kernel_lo, kernel_hi] = kernel_->hyper_bounds();
  math::Vec lo = kernel_lo, hi = kernel_hi;
  lo.push_back(std::log(options_.noise_lo));
  hi.push_back(std::log(options_.noise_hi));

  const auto objective = [&](std::span<const double> theta,
                             std::span<double> grad) {
    const LmlResult r = negative_lml(theta);
    std::copy(r.grad.begin(), r.grad.end(), grad.begin());
    return r.value;
  };

  // Warm start from theta exactly as the last hyperopt applied it (not the
  // log(exp(theta)) round trip through the kernel), then `restarts`
  // uniform draws from the box. The first start's projection is kept when
  // every run ends non-finite.
  math::Vec best_theta = fitted_theta_.empty() ? packed_hypers()
                                               : fitted_theta_;
  clamp_to_bounds(best_theta, lo, hi);
  double best_value = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart <= options_.restarts; ++restart) {
    math::Vec start;
    if (restart == 0) {
      start = best_theta;
    } else {
      start.resize(lo.size());
      for (std::size_t i = 0; i < lo.size(); ++i) {
        start[i] = rng.uniform(lo[i], hi[i]);
      }
    }
    const auto result =
        math::lbfgs_box(objective, start, lo, hi, options_.max_iterations);
    if (result.value < best_value) {
      best_value = result.value;
      best_theta = result.x;
    }
  }

  apply_packed(best_theta);
  factorize();
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  GpPrediction out;
  predict_batch(x, std::span(&out, 1));
  return out;
}

void GaussianProcess::predict_batch(std::span<const double> rows,
                                    std::span<GpPrediction> out) const {
  if (!factor_) throw std::logic_error("GaussianProcess: predict before fit");
  const std::size_t dim = kernel_->input_dim();
  if (rows.size() != out.size() * dim)
    throw std::invalid_argument("GaussianProcess: predict_batch size mismatch");
  math::check_finite(rows, "GP prediction input");
  const std::size_t n = targets_std_.size();
  const math::Matrix& lower = factor_->lower;
  // Block scratch, candidate-minor: kv[i * bs + b] first holds k(x_i, row
  // b), then the forward-substitution solution v_i for that row.
  std::vector<double> kv(n * std::min(out.size(), kPredictBlock));
  std::array<double, kPredictBlock> mean_std{};
  std::array<double, kPredictBlock> vv{};
  for (std::size_t begin = 0; begin < out.size(); begin += kPredictBlock) {
    const std::size_t bs = std::min(kPredictBlock, out.size() - begin);
    const auto row = [&](std::size_t b) {
      return rows.subspan((begin + b) * dim, dim);
    };
    std::fill_n(mean_std.begin(), bs, 0.0);
    std::fill_n(vv.begin(), bs, 0.0);
    // Cross-covariance, and mean = k* . alpha summed in training order.
    for (std::size_t i = 0; i < n; ++i) {
      double* ki = kv.data() + i * bs;
      for (std::size_t b = 0; b < bs; ++b) {
        ki[b] = kernel_->eval(x_.row(i), row(b));
      }
      math::check_finite(std::span<const double>(ki, bs),
                         "GP cross-covariance");
      const double a = alpha_[i];
      for (std::size_t b = 0; b < bs; ++b) mean_std[b] += ki[b] * a;
    }
    // L v = k*, in place: row i subtracts L(i, j) v_j for j = 0..i-1 in
    // order, then divides by L(i, i), as solve_lower does per candidate;
    // v . v accumulates in the same index order.
    for (std::size_t i = 0; i < n; ++i) {
      double* vi = kv.data() + i * bs;
      const std::span<const double> li = lower.row(i);
      for (std::size_t j = 0; j < i; ++j) {
        const double lij = li[j];
        const double* vj = kv.data() + j * bs;
        for (std::size_t b = 0; b < bs; ++b) vi[b] -= lij * vj[b];
      }
      const double lii = li[i];
      for (std::size_t b = 0; b < bs; ++b) {
        vi[b] /= lii;
        vv[b] += vi[b] * vi[b];
      }
    }
    for (std::size_t b = 0; b < bs; ++b) {
      const double k_xx = kernel_->eval(row(b), row(b));
      const double var_std = std::max(0.0, k_xx - vv[b]);
      out[begin + b].mean = mean_std[b] * y_scale_ + y_mean_;
      out[begin + b].variance = var_std * y_scale_ * y_scale_;
    }
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  if (!factor_) throw std::logic_error("GaussianProcess: LML before fit");
  const double fit_term = 0.5 * math::dot(targets_std_, alpha_);
  return -fit_term - 0.5 * factor_->log_det() -
         0.5 * static_cast<double>(targets_std_.size()) * kLog2Pi;
}

double GaussianProcess::noise_variance() const {
  return std::exp(log_noise_) * y_scale_ * y_scale_;
}

}  // namespace autodml::gp
