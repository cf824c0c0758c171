// Differential test for the fused, allocation-free LML pass.
//
// GaussianProcess::negative_lml evaluates each training pair once
// (Kernel::eval_pair) and rebuilds the pair's hyperparameter gradient from
// the stored coefficient (Kernel::add_scaled_grad). The formulation it
// replaced — a kernel clone per call, then separate eval and grad_hyper
// visits per pair — lives on here, verbatim, as the oracle. The two must
// agree bit for bit (memcmp, not a tolerance) on the value and on every
// gradient entry: across both ARD kernels, sizes on both sides of the
// blocked-Cholesky threshold, duplicate rows that take the jitter ladder,
// and hyperparameters at both box bounds. Also pins the evaluation counter
// and the identity -negative_lml(fitted theta) == log_marginal_likelihood().
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gp/gp.h"
#include "gp/kernel.h"
#include "math/cholesky.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace autodml {
namespace {

constexpr double kLog2Pi = 1.8378770664093454836;

/// The pre-fusion negative_lml body (memo and counters left out): a kernel
/// clone per call, eval for the Gram matrix, and a second grad_hyper visit
/// — one heap-allocated gradient per pair — for the gradient.
gp::GaussianProcess::LmlResult oracle_negative_lml(
    const gp::Kernel& kernel, const math::Matrix& x_,
    const math::Vec& targets_std_, std::span<const double> packed) {
  using LmlResult = gp::GaussianProcess::LmlResult;
  // Evaluate on a scratch clone so the public state stays untouched.
  auto k = kernel.clone();
  k->set_hyperparams(packed.subspan(0, packed.size() - 1));
  const double noise_var = std::exp(packed.back());

  const std::size_t n = targets_std_.size();
  math::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = k->eval(x_.row(i), x_.row(j));
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

  const math::Matrix linv = factor.lower_inverse();
  math::Matrix kinv_lower(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t kk = i; kk < n; ++kk) acc += linv(kk, i) * linv(kk, j);
      kinv_lower(i, j) = acc;
    }
  }
  const std::size_t n_kernel = packed.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double w = alpha[i] * alpha[j] - kinv_lower(i, j);
      const double pair_weight = (i == j) ? 1.0 : 2.0;
      const math::Vec dk = k->grad_hyper(x_.row(i), x_.row(j));
      for (std::size_t t = 0; t < n_kernel; ++t) {
        out.grad[t] += -0.5 * pair_weight * w * dk[t];  // negative LML
      }
      if (i == j) out.grad[n_kernel] += -0.5 * w * noise_var;
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_identical(const gp::GaussianProcess::LmlResult& fused,
                          const gp::GaussianProcess::LmlResult& oracle,
                          const std::string& where) {
  EXPECT_TRUE(same_bits(fused.value, oracle.value))
      << where << ": value " << fused.value << " vs oracle " << oracle.value;
  ASSERT_EQ(fused.grad.size(), oracle.grad.size()) << where;
  for (std::size_t t = 0; t < fused.grad.size(); ++t) {
    EXPECT_TRUE(same_bits(fused.grad[t], oracle.grad[t]))
        << where << ": grad[" << t << "] " << fused.grad[t] << " vs oracle "
        << oracle.grad[t];
  }
}

constexpr std::size_t kDim = 4;

struct Data {
  math::Matrix x;
  math::Vec y;
};

/// Smooth response on [0,1]^kDim. With `duplicates`, every third row
/// repeats the row before it, giving r = 0 off-diagonal pairs.
Data make_data(std::size_t n, std::uint64_t seed, bool duplicates) {
  util::Rng rng(seed);
  Data d{math::Matrix(n, kDim), math::Vec(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const bool copy = duplicates && i % 3 == 2;
    double v = 0.0;
    for (std::size_t k = 0; k < kDim; ++k) {
      d.x(i, k) = copy ? d.x(i - 1, k) : rng.uniform();
      v += std::sin(2.5 * (static_cast<double>(k) + 1.0) * d.x(i, k));
    }
    d.y[i] = v + 0.1 * rng.normal();
  }
  return d;
}

/// A GP on `d` without hyperopt and without target standardization, so its
/// internal targets are d.y exactly and the oracle sees the same inputs.
template <typename K>
gp::GaussianProcess make_gp(const Data& d) {
  gp::GpOptions options;
  options.optimize_hyperparams = false;
  options.standardize_targets = false;
  gp::GaussianProcess model(std::make_unique<K>(kDim), options);
  model.refit(d.x, d.y);
  return model;
}

/// Thetas covering the box: fresh uniform draws, both corners, and the two
/// mixed corners (short lengthscales with high signal, and the reverse).
std::vector<math::Vec> probe_thetas(const gp::Kernel& kernel,
                                    std::uint64_t seed) {
  const gp::GpOptions defaults;
  auto [lo, hi] = kernel.hyper_bounds();
  lo.push_back(std::log(defaults.noise_lo));
  hi.push_back(std::log(defaults.noise_hi));
  std::vector<math::Vec> thetas = {lo, hi};
  math::Vec mixed_a = lo, mixed_b = hi;
  mixed_a[kDim] = hi[kDim];
  mixed_b[kDim] = lo[kDim];
  thetas.push_back(mixed_a);
  thetas.push_back(mixed_b);
  util::Rng rng(seed);
  for (int draw = 0; draw < 4; ++draw) {
    math::Vec theta(lo.size());
    for (std::size_t i = 0; i < lo.size(); ++i)
      theta[i] = rng.uniform(lo[i], hi[i]);
    thetas.push_back(theta);
  }
  return thetas;
}

template <typename K>
class LmlOracleTest : public ::testing::Test {};

using OracleKernels = ::testing::Types<gp::SquaredExponentialArd,
                                       gp::Matern52Ard>;
TYPED_TEST_SUITE(LmlOracleTest, OracleKernels);

TYPED_TEST(LmlOracleTest, FusedPassMatchesOracleBitForBit) {
  // 130 crosses kCholeskyBlockedThreshold, so both factorization paths run.
  static_assert(math::kCholeskyBlockedThreshold < 130);
  for (const std::size_t n : {3u, 17u, 64u, 130u}) {
    for (const bool duplicates : {false, true}) {
      const Data d = make_data(n, 100 + n, duplicates);
      const gp::GaussianProcess model = make_gp<TypeParam>(d);
      const auto thetas = probe_thetas(model.kernel(), 200 + n);
      for (std::size_t t = 0; t < thetas.size(); ++t) {
        const std::string where = "n=" + std::to_string(n) +
                                  (duplicates ? " dup" : "") +
                                  " theta#" + std::to_string(t);
        expect_bit_identical(model.negative_lml(thetas[t]),
                             oracle_negative_lml(model.kernel(), d.x, d.y,
                                                 thetas[t]),
                             where);
      }
    }
  }
}

TYPED_TEST(LmlOracleTest, DuplicateRowsOnTheJitterLadderMatchOracle) {
  // Near-zero noise makes the duplicated rows' Gram matrix singular, so
  // the factorization has to climb the jitter ladder.
  const Data d = make_data(17, 7, /*duplicates=*/true);
  const gp::GaussianProcess model = make_gp<TypeParam>(d);
  math::Vec theta = model.kernel().hyperparams();
  theta.push_back(-60.0);

  auto kernel = model.kernel().clone();
  kernel->set_hyperparams(std::span(theta).first(theta.size() - 1));
  math::Matrix gram(17, 17);
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 17; ++j)
      gram(i, j) = kernel->eval(d.x.row(i), d.x.row(j));
    gram(i, i) += std::exp(theta.back());
  }
  ASSERT_GT(math::cholesky_with_jitter(gram).jitter, 0.0)
      << "fixture no longer exercises the jitter ladder";

  expect_bit_identical(model.negative_lml(theta),
                       oracle_negative_lml(model.kernel(), d.x, d.y, theta),
                       "jitter ladder");
}

TYPED_TEST(LmlOracleTest, FittedThetaReproducesLogMarginalLikelihood) {
  for (const std::size_t n : {6u, 24u}) {
    const Data d = make_data(n, 300 + n, /*duplicates=*/false);
    gp::GpOptions options;
    options.restarts = 1;
    options.max_iterations = 10;
    gp::GaussianProcess model(std::make_unique<TypeParam>(kDim), options);
    util::Rng rng(n);
    model.fit(d.x, d.y, rng);
    ASSERT_EQ(model.fitted_hyperparams().size(), kDim + 2);
    const double lml = model.log_marginal_likelihood();
    const double from_pass =
        -model.negative_lml(model.fitted_hyperparams()).value;
    EXPECT_TRUE(same_bits(from_pass, lml))
        << "n=" << n << ": " << from_pass << " vs " << lml;
  }
}

TEST(LmlOracle, EveryEvaluationCountsOnce) {
  // gp.lml_evals is the fit's work counter (bench and golden read it):
  // each negative_lml call is one full pass, and repeating a theta on the
  // same data reproduces its bits.
  auto& registry = obs::MetricsRegistry::instance();
  registry.enable();
  registry.reset();
  const auto& evals = registry.counter("gp.lml_evals");

  const Data d = make_data(17, 11, /*duplicates=*/false);
  gp::GaussianProcess model = make_gp<gp::Matern52Ard>(d);
  const auto thetas = probe_thetas(model.kernel(), 12);
  const auto first = model.negative_lml(thetas[4]);
  EXPECT_EQ(evals.value(), 1);
  expect_bit_identical(model.negative_lml(thetas[4]), first,
                       "repeat evaluation");
  (void)model.negative_lml(thetas[5]);
  EXPECT_EQ(evals.value(), 3);
  registry.disable();
}

}  // namespace
}  // namespace autodml
