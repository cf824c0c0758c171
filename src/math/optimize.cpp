#include "math/optimize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace autodml::math {

OptResult nelder_mead(const Objective& f, std::span<const double> x0,
                      const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  if (n == 0) throw std::invalid_argument("nelder_mead: empty start point");

  // Standard coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  std::vector<Vec> simplex;
  simplex.reserve(n + 1);
  simplex.emplace_back(x0.begin(), x0.end());
  for (std::size_t i = 0; i < n; ++i) {
    Vec v(x0.begin(), x0.end());
    v[i] += options.initial_step;
    simplex.push_back(std::move(v));
  }
  std::vector<double> fv(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fv[i] = f(simplex[i]);

  OptResult result;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order simplex by function value.
    std::vector<std::size_t> order(n + 1);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fv[a] < fv[b]; });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    // Convergence: spread in f and in x.
    const double f_spread = std::abs(fv[worst] - fv[best]);
    double x_spread = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x_spread = std::max(x_spread,
                          std::abs(simplex[worst][i] - simplex[best][i]));
    }
    if (f_spread < options.f_tolerance && x_spread < options.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but worst.
    Vec centroid(n, 0.0);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      axpy(1.0, simplex[k], centroid);
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    const auto point_along = [&](double coeff) {
      Vec p(n);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = centroid[i] + coeff * (centroid[i] - simplex[worst][i]);
      }
      return p;
    };

    Vec reflected = point_along(kReflect);
    const double f_reflected = f(reflected);
    if (f_reflected < fv[best]) {
      Vec expanded = point_along(kExpand);
      const double f_expanded = f(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = std::move(expanded);
        fv[worst] = f_expanded;
      } else {
        simplex[worst] = std::move(reflected);
        fv[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected < fv[second_worst]) {
      simplex[worst] = std::move(reflected);
      fv[worst] = f_reflected;
      continue;
    }
    // Contraction (outside if reflected beats worst, else inside).
    const bool outside = f_reflected < fv[worst];
    Vec contracted = point_along(outside ? kContract : -kContract);
    const double f_contracted = f(contracted);
    if (f_contracted < std::min(f_reflected, fv[worst])) {
      simplex[worst] = std::move(contracted);
      fv[worst] = f_contracted;
      continue;
    }
    // Shrink toward best.
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == best) continue;
      for (std::size_t i = 0; i < n; ++i) {
        simplex[k][i] =
            simplex[best][i] + kShrink * (simplex[k][i] - simplex[best][i]);
      }
      fv[k] = f(simplex[k]);
    }
  }

  const auto best_it = std::min_element(fv.begin(), fv.end());
  result.x = simplex[static_cast<std::size_t>(best_it - fv.begin())];
  result.value = *best_it;
  result.iterations = iter;
  return result;
}

namespace {

// lbfgs_box constants: curvature pairs kept, the two convergence
// tolerances, the Armijo sufficient-decrease fraction and the backtracking
// budget per iteration.
constexpr std::size_t kLbfgsMemory = 6;
constexpr double kProjectedGradTolerance = 1e-5;
constexpr double kRelativeDecreaseTolerance = 1e-8;
constexpr double kArmijo = 1e-4;
constexpr int kMaxBacktracks = 20;

}  // namespace

OptResult lbfgs_box(const GradObjective& f, std::span<const double> x0,
                    std::span<const double> lower,
                    std::span<const double> upper, int max_iterations) {
  const std::size_t n = x0.size();
  if (lower.size() != n || upper.size() != n) {
    throw std::invalid_argument("lbfgs_box: bounds/start size mismatch");
  }
  const auto project = [&](double v, std::size_t i) {
    return std::clamp(v, lower[i], upper[i]);
  };

  OptResult result;
  Vec x(n), g(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = project(x0[i], i);
  double fx = f(x, g);
  if (!std::isfinite(fx)) {
    result.x = std::move(x);
    result.value = std::numeric_limits<double>::infinity();
    return result;
  }

  // Curvature pairs, oldest first.
  std::vector<Vec> s_hist, y_hist;
  std::vector<double> rho_hist;
  std::vector<char> free(n);
  Vec d(n), x_new(n), g_new(n), alpha(kLbfgsMemory);
  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    // Projected gradient; a coordinate at a bound whose descent direction
    // leaves the box is pinned for this iteration.
    double pg_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      pg_inf = std::max(pg_inf, std::abs(project(x[i] - g[i], i) - x[i]));
      free[i] = !((x[i] <= lower[i] && g[i] > 0.0) ||
                  (x[i] >= upper[i] && g[i] < 0.0));
    }
    if (pg_inf < kProjectedGradTolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion on the free coordinates: d = -H g.
    for (std::size_t i = 0; i < n; ++i) d[i] = free[i] ? g[i] : 0.0;
    const std::size_t m = s_hist.size();
    for (std::size_t k = m; k-- > 0;) {
      alpha[k] = rho_hist[k] * dot(s_hist[k], d);
      for (std::size_t i = 0; i < n; ++i)
        if (free[i]) d[i] -= alpha[k] * y_hist[k][i];
    }
    double gamma;
    if (m > 0) {
      gamma = dot(s_hist[m - 1], y_hist[m - 1]) /
              dot(y_hist[m - 1], y_hist[m - 1]);
    } else {
      // First step (or after a reset): a unit-length steepest-descent step.
      gamma = 1.0 / std::max(1.0, norm2(d));
    }
    for (double& v : d) v *= gamma;
    for (std::size_t k = 0; k < m; ++k) {
      const double beta = rho_hist[k] * dot(y_hist[k], d);
      for (std::size_t i = 0; i < n; ++i)
        if (free[i]) d[i] += (alpha[k] - beta) * s_hist[k][i];
    }
    for (double& v : d) v = -v;

    // Backtracking along the projected path x(t) = P(x + t d).
    double f_new = 0.0;
    bool accepted = false;
    double t = 1.0;
    for (int bt = 0; bt < kMaxBacktracks && !accepted; ++bt, t *= 0.5) {
      double predicted = 0.0;  // g . (x(t) - x), the first-order decrease
      for (std::size_t i = 0; i < n; ++i) {
        x_new[i] = project(x[i] + t * d[i], i);
        predicted += g[i] * (x_new[i] - x[i]);
      }
      if (!(predicted < 0.0)) break;  // not a descent direction
      f_new = f(x_new, g_new);
      accepted = std::isfinite(f_new) && f_new <= fx + kArmijo * predicted;
    }
    if (!accepted) {
      // The quasi-Newton model misled the search: restart from steepest
      // descent, and stop when even that finds no decrease.
      if (s_hist.empty()) break;
      s_hist.clear();
      y_hist.clear();
      rho_hist.clear();
      continue;
    }

    Vec s_k(n), y_k(n);
    for (std::size_t i = 0; i < n; ++i) {
      s_k[i] = x_new[i] - x[i];
      y_k[i] = g_new[i] - g[i];
    }
    const double sy = dot(s_k, y_k);
    if (sy > 1e-12 * dot(y_k, y_k)) {  // keep H positive definite
      if (s_hist.size() == kLbfgsMemory) {
        s_hist.erase(s_hist.begin());
        y_hist.erase(y_hist.begin());
        rho_hist.erase(rho_hist.begin());
      }
      s_hist.push_back(std::move(s_k));
      y_hist.push_back(std::move(y_k));
      rho_hist.push_back(1.0 / sy);
    }
    const double decrease =
        (fx - f_new) / std::max({std::abs(fx), std::abs(f_new), 1.0});
    x.swap(x_new);
    g.swap(g_new);
    fx = f_new;
    if (decrease < kRelativeDecreaseTolerance) {
      ++iter;
      result.converged = true;
      break;
    }
  }
  result.x = std::move(x);
  result.value = fx;
  result.iterations = iter;
  return result;
}

Vec numerical_gradient(const Objective& f, std::span<const double> x,
                       double h) {
  Vec grad(x.size(), 0.0);
  Vec probe(x.begin(), x.end());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = probe[i];
    probe[i] = orig + h;
    const double fp = f(probe);
    probe[i] = orig - h;
    const double fm = f(probe);
    probe[i] = orig;
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

}  // namespace autodml::math
