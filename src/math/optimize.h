// Generic numeric optimizers.
//
// Three consumers: GP hyperparameter fitting maximizes the log-marginal
// likelihood (box-constrained L-BFGS on analytic gradients, restarted);
// learning-curve extrapolation fits power laws (Nelder-Mead); acquisition
// optimization uses its own mixed-space search in src/core.
#pragma once

#include <functional>

#include "math/matrix.h"
#include "util/rng.h"

namespace autodml::math {

/// Objective returning just a value (derivative-free methods).
using Objective = std::function<double(std::span<const double>)>;

/// Objective returning value and writing the gradient into `grad`.
using GradObjective =
    std::function<double(std::span<const double>, std::span<double> grad)>;

struct OptResult {
  Vec x;
  double value = 0.0;
  int iterations = 0;
  bool converged = false;
};

struct NelderMeadOptions {
  int max_iterations = 500;
  double initial_step = 0.5;   // simplex edge length
  double f_tolerance = 1e-9;   // stop when simplex f-spread below this
  double x_tolerance = 1e-9;   // stop when simplex x-spread below this
};

/// Minimize f starting from x0 (Nelder-Mead downhill simplex).
OptResult nelder_mead(const Objective& f, std::span<const double> x0,
                      const NelderMeadOptions& options = {});

/// Minimize f over the box [lower, upper] from x0 (projected L-BFGS on the
/// provided analytic gradient). The start point is projected onto the box
/// and the objective is only ever evaluated at feasible points. Each
/// iteration builds a quasi-Newton direction from a small fixed memory of
/// curvature pairs over the variables not pinned at a bound, then
/// backtracks along the projected path until the Armijo condition holds; a
/// trial point with a non-finite value is treated as too long a step.
/// Stops when the inf-norm of the projected gradient or the relative
/// decrease of f falls below a fixed tolerance (converged = true), when
/// neither the quasi-Newton nor the steepest-descent direction yields a
/// decrease, or after `max_iterations` iterations. The iterates decrease f monotonically, so the result is
/// the best point seen; a non-finite value at the projected start returns
/// that point with value +inf. Throws std::invalid_argument when the
/// bounds are not sized like x0.
OptResult lbfgs_box(const GradObjective& f, std::span<const double> x0,
                    std::span<const double> lower,
                    std::span<const double> upper, int max_iterations);

/// Central-difference numerical gradient (for tests and fallbacks).
Vec numerical_gradient(const Objective& f, std::span<const double> x,
                       double h = 1e-6);

}  // namespace autodml::math
