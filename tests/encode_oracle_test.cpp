// Differential test for index-based activation and copy-free encoding.
//
// ConfigSpace resolves each conditional parameter's parent index once, in
// add(), and encode() reads an inactive parameter's default in place of
// its value instead of canonicalizing a copy. The bodies they replaced —
// is_active looking the parent up by name and matching its value's string
// rendering, encode copying the config and canonicalizing it first — live
// on here, verbatim, as the oracle. On randomized spaces with nested
// conditionals under boolean and categorical parents (so grandparents are
// often inactive) and raw, non-canonical configurations, is_active,
// canonicalize and encode must agree with the oracle exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "config/config_space.h"
#include "util/rng.h"

namespace autodml::conf {
namespace {

bool oracle_is_active(const ConfigSpace& space, const Config& c,
                      std::size_t param_index) {
  const ParamSpec& p = space.param(param_index);
  if (!p.is_conditional()) return true;
  const std::size_t parent_index = space.index_of(p.parent());
  // A conditional parameter whose parent is itself inactive is inactive.
  if (!oracle_is_active(space, c, parent_index)) return false;
  const ParamValue& pv = c.value_at(parent_index);
  const std::string actual = conf::to_string(pv);
  return std::find(p.parent_values().begin(), p.parent_values().end(),
                   actual) != p.parent_values().end();
}

void oracle_canonicalize(const ConfigSpace& space, Config& c) {
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    if (!oracle_is_active(space, c, i)) {
      c.set_value_at(i, space.param(i).default_value());
    }
  }
}

double oracle_encode_scalar(const ParamSpec& p, const ParamValue& v) {
  switch (p.kind()) {
    case ParamKind::kInt: {
      const auto x = std::get<std::int64_t>(v);
      if (p.int_hi() == p.int_lo()) return 0.5;
      if (p.log_scale()) {
        return (std::log(static_cast<double>(x)) -
                std::log(static_cast<double>(p.int_lo()))) /
               (std::log(static_cast<double>(p.int_hi())) -
                std::log(static_cast<double>(p.int_lo())));
      }
      return static_cast<double>(x - p.int_lo()) /
             static_cast<double>(p.int_hi() - p.int_lo());
    }
    case ParamKind::kIntChoice: {
      const auto x = std::get<std::int64_t>(v);
      const auto& menu = p.int_choices();
      const auto it = std::lower_bound(menu.begin(), menu.end(), x);
      const auto idx = static_cast<std::size_t>(it - menu.begin());
      if (menu.size() == 1) return 0.5;
      return static_cast<double>(idx) / static_cast<double>(menu.size() - 1);
    }
    case ParamKind::kContinuous: {
      const double x = std::get<double>(v);
      if (p.log_scale()) {
        return (std::log(x) - std::log(p.cont_lo())) /
               (std::log(p.cont_hi()) - std::log(p.cont_lo()));
      }
      return (x - p.cont_lo()) / (p.cont_hi() - p.cont_lo());
    }
    case ParamKind::kBool:
      return std::get<bool>(v) ? 1.0 : 0.0;
    case ParamKind::kCategorical:
      throw std::logic_error("encode_scalar: categorical handled by caller");
  }
  return 0.0;
}

math::Vec oracle_encode(const ConfigSpace& space, const Config& c) {
  space.validate(c);
  Config canon = c;
  oracle_canonicalize(space, canon);
  math::Vec x;
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const ParamSpec& p = space.param(i);
    if (p.kind() == ParamKind::kCategorical) {
      const auto& cat = std::get<std::string>(canon.value_at(i));
      for (const auto& candidate : p.categories()) {
        x.push_back(candidate == cat ? 1.0 : 0.0);
      }
    } else {
      x.push_back(oracle_encode_scalar(p, canon.value_at(i)));
    }
  }
  return x;
}

/// A random space of 4 to 15 parameters of every kind. About half of them
/// are conditional on an earlier boolean or categorical parameter, which is
/// itself often conditional, so activation chains run several levels deep.
ConfigSpace random_space(util::Rng& rng) {
  ConfigSpace space;
  std::vector<std::size_t> parents;  // indices of bool/categorical params
  const std::size_t count = 4 + rng.index(12);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = "p" + std::to_string(i);
    ParamSpec spec = ParamSpec::boolean(name);
    switch (rng.index(7)) {
      case 0:
        spec = ParamSpec::integer(
            name, 1, 1 + static_cast<std::int64_t>(rng.index(64)),
            rng.bernoulli(0.5));
        break;
      case 1:
        spec = ParamSpec::int_choice(name, {1, 2, 4, 8, 16});
        break;
      case 2:
        spec = ParamSpec::continuous(name, 0.001, 10.0, rng.bernoulli(0.5));
        break;
      case 3:
      case 4: {
        std::vector<std::string> cats;
        const std::size_t n = 2 + rng.index(3);
        for (std::size_t k = 0; k < n; ++k) {
          cats.push_back("c" + std::to_string(k));
        }
        spec = ParamSpec::categorical(name, cats);
        break;
      }
      default:
        break;  // boolean
    }
    if (!parents.empty() && rng.bernoulli(0.6)) {
      const std::size_t parent = parents[rng.index(parents.size())];
      const ParamSpec& pp = space.param(parent);
      std::vector<std::string> enabling;
      if (pp.kind() == ParamKind::kBool) {
        enabling.push_back(rng.bernoulli(0.5) ? "true" : "false");
        if (rng.bernoulli(0.2)) enabling.push_back("true");
      } else {
        for (const auto& cat : pp.categories()) {
          if (rng.bernoulli(0.5)) enabling.push_back(cat);
        }
        if (enabling.empty()) enabling.push_back(pp.categories().back());
      }
      spec.only_when(pp.name(), enabling);
    }
    if (spec.kind() == ParamKind::kBool ||
        spec.kind() == ParamKind::kCategorical) {
      parents.push_back(i);
    }
    space.add(std::move(spec));
  }
  return space;
}

/// Uniform valid values for every parameter, active or not, and *not*
/// canonicalized: inactive parameters usually hold non-default values.
Config raw_config(const ConfigSpace& space, util::Rng& rng) {
  std::vector<ParamValue> values;
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const ParamSpec& p = space.param(i);
    switch (p.kind()) {
      case ParamKind::kInt:
        values.emplace_back(rng.uniform_int(p.int_lo(), p.int_hi()));
        break;
      case ParamKind::kIntChoice:
        values.emplace_back(
            p.int_choices()[rng.index(p.int_choices().size())]);
        break;
      case ParamKind::kContinuous:
        values.emplace_back(rng.uniform(p.cont_lo(), p.cont_hi()));
        break;
      case ParamKind::kCategorical:
        values.emplace_back(p.categories()[rng.index(p.categories().size())]);
        break;
      case ParamKind::kBool:
        values.emplace_back(rng.bernoulli(0.5));
        break;
    }
  }
  return Config(&space, std::move(values));
}

bool same_bits(const math::Vec& a, const math::Vec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(EncodeOracle, ActivationCanonicalizeAndEncodeMatchOnRandomSpaces) {
  util::Rng rng(2024);
  std::size_t inactive_seen = 0;
  std::size_t grandchildren_seen = 0;
  for (int s = 0; s < 200; ++s) {
    const ConfigSpace space = random_space(rng);
    for (std::size_t i = 0; i < space.num_params(); ++i) {
      const ParamSpec& p = space.param(i);
      if (p.is_conditional() && space.param(p.parent()).is_conditional()) {
        ++grandchildren_seen;
      }
    }
    for (int k = 0; k < 25; ++k) {
      const Config c = raw_config(space, rng);
      for (std::size_t i = 0; i < space.num_params(); ++i) {
        const bool want = oracle_is_active(space, c, i);
        ASSERT_EQ(space.is_active(c, i), want)
            << "space " << s << " param " << i;
        if (!want) ++inactive_seen;
      }
      Config canon = c;
      Config want_canon = c;
      space.canonicalize(canon);
      oracle_canonicalize(space, want_canon);
      ASSERT_TRUE(canon == want_canon) << canon.to_string();
      ASSERT_EQ(canon.to_string(), want_canon.to_string());

      const math::Vec want = oracle_encode(space, c);
      ASSERT_TRUE(same_bits(space.encode(c), want)) << c.to_string();
      ASSERT_TRUE(same_bits(space.encode(canon), want)) << c.to_string();
      math::Vec row(space.encoded_dimension(), -1.0);
      space.encode_into(c, row);
      ASSERT_TRUE(same_bits(row, want)) << c.to_string();
    }
  }
  // The corpus must actually exercise what it claims to.
  EXPECT_GT(inactive_seen, 1000u);
  EXPECT_GT(grandchildren_seen, 100u);
}

TEST(EncodeOracle, IllTypedParentValuesMatchByRendering) {
  ConfigSpace space;
  space.add(ParamSpec::boolean("flag"));
  space.add(ParamSpec::categorical("mode", {"a", "b"}));
  space.add(ParamSpec::integer("x", 1, 4).only_when("flag", {"true"}));
  space.add(ParamSpec::integer("y", 1, 4).only_when("mode", {"b"}));
  const std::vector<ParamValue> parents = {
      ParamValue{true}, ParamValue{false}, ParamValue{std::string("true")},
      ParamValue{std::string("b")}, ParamValue{std::int64_t{1}},
      ParamValue{0.5}};
  for (const ParamValue& flag : parents) {
    for (const ParamValue& mode : parents) {
      const Config c(&space, {flag, mode, std::int64_t{2}, std::int64_t{3}});
      for (std::size_t i = 0; i < space.num_params(); ++i) {
        EXPECT_EQ(space.is_active(c, i), oracle_is_active(space, c, i))
            << c.to_string() << " param " << i;
      }
    }
  }
}

TEST(EncodeOracle, EncodeRejectsWhatTheOracleRejects) {
  ConfigSpace space;
  space.add(ParamSpec::categorical("mode", {"a", "b"}));
  space.add(ParamSpec::integer("x", 1, 4).only_when("mode", {"b"}));
  // An out-of-range value in an inactive parameter still fails validation.
  const Config bad(&space, {std::string("a"), std::int64_t{9}});
  EXPECT_THROW(oracle_encode(space, bad), std::invalid_argument);
  EXPECT_THROW(space.encode(bad), std::invalid_argument);
  math::Vec short_row(1);
  const Config good(&space, {std::string("b"), std::int64_t{2}});
  EXPECT_THROW(space.encode_into(good, short_row), std::invalid_argument);
}

}  // namespace
}  // namespace autodml::conf
