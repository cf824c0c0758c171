// Test-only oracle: the GP hyperparameter optimizer that box-constrained
// L-BFGS (math::lbfgs_box, GaussianProcess::fit) replaced, kept verbatim —
// projected Adam with restarts, then a Nelder-Mead polish of the best run.
// tests/hyperopt_oracle_test.cpp pins the new fit against it on a corpus of
// fit problems (final negative LML and evaluation count) and keeps Adam's
// own unit tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "gp/gp.h"
#include "math/matrix.h"
#include "math/optimize.h"
#include "util/rng.h"

namespace autodml::math {

struct AdamOptions {
  int max_iterations = 200;
  double learning_rate = 0.05;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  double grad_tolerance = 1e-6;  // stop when ||grad||_inf below this
  /// Optional box constraints. When non-empty (each sized like x0), the
  /// start point and every Adam iterate are projected onto
  /// [lower_bounds, upper_bounds], so the objective and its gradient are
  /// only ever evaluated at feasible points — an unprojected iterate
  /// drifting out of bounds would keep receiving the stale boundary
  /// gradient while its distance from the feasible box grows.
  Vec lower_bounds;
  Vec upper_bounds;
};

/// Minimize f starting from x0 (projected Adam on the provided analytic
/// gradient). Non-finite objective evaluations contribute a zero gradient
/// to the moment estimates (momentum decays but is never NaN-poisoned).
inline OptResult adam(const GradObjective& f, std::span<const double> x0,
                      const AdamOptions& options = {}) {
  const std::size_t n = x0.size();
  const bool bounded =
      !options.lower_bounds.empty() || !options.upper_bounds.empty();
  if (bounded && (options.lower_bounds.size() != n ||
                  options.upper_bounds.size() != n)) {
    throw std::invalid_argument("adam: bounds/start size mismatch");
  }
  const auto project = [&](Vec& p) {
    if (!bounded) return;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = std::clamp(p[i], options.lower_bounds[i], options.upper_bounds[i]);
    }
  };

  Vec x(x0.begin(), x0.end());
  project(x);
  Vec m(n, 0.0), v(n, 0.0), grad(n, 0.0);
  OptResult result;
  result.x = x;
  result.value = f(x, grad);

  Vec best_x = x;
  double best_f = std::isfinite(result.value)
                      ? result.value
                      : std::numeric_limits<double>::infinity();
  // Whether the evaluation that produced `grad` returned a finite value; a
  // non-finite objective makes its gradient meaningless, and feeding it into
  // the moment estimates would poison m/v with NaN for every later step.
  bool grad_valid = std::isfinite(result.value);

  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (grad_valid) {
      double grad_inf = 0.0;
      for (double g : grad) grad_inf = std::max(grad_inf, std::abs(g));
      if (grad_inf < options.grad_tolerance) {
        result.converged = true;
        break;
      }
    }
    const double t = static_cast<double>(iter + 1);
    for (std::size_t i = 0; i < n; ++i) {
      // On an invalid evaluation the gradient contribution is zero: the
      // moments decay and the iterate coasts on momentum out of the bad
      // region instead of freezing or going NaN.
      const double g = grad_valid ? grad[i] : 0.0;
      m[i] = options.beta1 * m[i] + (1.0 - options.beta1) * g;
      v[i] = options.beta2 * v[i] + (1.0 - options.beta2) * g * g;
      const double m_hat = m[i] / (1.0 - std::pow(options.beta1, t));
      const double v_hat = v[i] / (1.0 - std::pow(options.beta2, t));
      x[i] -= options.learning_rate * m_hat /
              (std::sqrt(v_hat) + options.epsilon);
    }
    project(x);
    const double fx = f(x, grad);
    grad_valid = std::isfinite(fx);
    if (grad_valid && fx < best_f) {
      best_f = fx;
      best_x = x;
    }
  }
  result.x = std::move(best_x);
  result.value = best_f;
  result.iterations = iter;
  return result;
}

}  // namespace autodml::math

namespace autodml::test_oracle {

/// The replaced optimizer's budget (the old GpOptions defaults).
struct OracleBudget {
  int restarts = 2;
  int adam_iterations = 120;
  int polish_iterations = 80;
};

struct OracleFit {
  math::Vec theta;
  double value = 0.0;  // negative LML at theta
};

/// The replaced GaussianProcess::fit optimizer body, verbatim except that
/// it reads the model through its public surface: `warm` stands in for the
/// packed hyperparameters the old body started from, and the best theta and
/// its value are returned instead of applied. Runs on `model`'s current
/// training data (call refit first); draws its restarts from `rng` exactly
/// as fit() does.
inline OracleFit oracle_fit(const gp::GaussianProcess& model,
                            std::span<const double> warm, const math::Vec& lo,
                            const math::Vec& hi, const OracleBudget& options,
                            util::Rng& rng) {
  const auto clamp_to_bounds = [](std::span<double> x,
                                  std::span<const double> lo_,
                                  std::span<const double> hi_) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = std::clamp(x[i], lo_[i], hi_[i]);
    }
  };

  // Adam projects its iterates onto [lo, hi] (AdamOptions bounds below), so
  // the gradient is always evaluated at the point the step actually reached.
  const auto objective_grad = [&](std::span<const double> theta,
                                  std::span<double> grad) {
    const gp::GaussianProcess::LmlResult r = model.negative_lml(theta);
    std::copy(r.grad.begin(), r.grad.end(), grad.begin());
    return r.value;
  };
  // Nelder-Mead has no projection support; clamp inside the objective.
  const auto objective = [&](std::span<const double> theta) {
    math::Vec projected(theta.begin(), theta.end());
    clamp_to_bounds(projected, lo, hi);
    return model.negative_lml(projected).value;
  };

  math::AdamOptions adam_opts;
  adam_opts.max_iterations = options.adam_iterations;
  adam_opts.lower_bounds = lo;
  adam_opts.upper_bounds = hi;

  math::Vec best_theta(warm.begin(), warm.end());
  clamp_to_bounds(best_theta, lo, hi);
  double best_value = objective(best_theta);

  for (int restart = 0; restart <= options.restarts; ++restart) {
    math::Vec start;
    if (restart == 0) {
      start = best_theta;  // warm start from current hyperparameters
    } else {
      start.resize(lo.size());
      for (std::size_t i = 0; i < lo.size(); ++i) {
        start[i] = rng.uniform(lo[i], hi[i]);
      }
    }
    const auto result = math::adam(objective_grad, start, adam_opts);
    math::Vec candidate = result.x;
    clamp_to_bounds(candidate, lo, hi);
    const double value = objective(candidate);
    if (value < best_value) {
      best_value = value;
      best_theta = candidate;
    }
  }

  if (options.polish_iterations > 0) {
    math::NelderMeadOptions nm;
    nm.max_iterations = options.polish_iterations;
    nm.initial_step = 0.2;
    const auto polished = math::nelder_mead(objective, best_theta, nm);
    math::Vec candidate = polished.x;
    clamp_to_bounds(candidate, lo, hi);
    if (polished.value < best_value) {
      best_theta = candidate;
      best_value = polished.value;  // the objective clamps: same point
    }
  }

  return {best_theta, best_value};
}

}  // namespace autodml::test_oracle
