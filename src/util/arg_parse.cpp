#include "util/arg_parse.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/string_util.h"

namespace autodml::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) continue;
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    order_.emplace_back(arg.substr(0, eq));
    if (eq == std::string_view::npos) {
      args_.emplace(std::string(arg), "true");
    } else {
      args_.emplace(std::string(arg.substr(0, eq)),
                    std::string(arg.substr(eq + 1)));
    }
  }
}

bool ArgParser::has(std::string_view name) const {
  return args_.find(name) != args_.end();
}

std::string ArgParser::get(std::string_view name, std::string_view def) const {
  const auto it = args_.find(name);
  return it == args_.end() ? std::string(def) : it->second;
}

std::int64_t ArgParser::get_int(std::string_view name, std::int64_t def) const {
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  return std::stoll(it->second);
}

double ArgParser::get_double(std::string_view name, double def) const {
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  return std::stod(it->second);
}

bool ArgParser::get_bool(std::string_view name, bool def) const {
  const auto it = args_.find(name);
  if (it == args_.end()) return def;
  const std::string v = to_lower(it->second);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

namespace {

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = up;
    }
  }
  return row[b.size()];
}

}  // namespace

std::optional<std::string> ArgParser::unknown_flag(
    std::span<const std::string_view> known) const {
  for (const std::string& name : order_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string message = "unknown flag --" + name;
    // Suggest the closest known flag when it is a plausible typo: at most
    // a third of the name's length away (and at least 2 edits allowed).
    const std::size_t limit = std::max<std::size_t>(2, name.size() / 3);
    std::size_t best = limit + 1;
    std::string_view suggestion;
    for (const std::string_view candidate : known) {
      const std::size_t d = edit_distance(name, candidate);
      if (d < best) {
        best = d;
        suggestion = candidate;
      }
    }
    if (!suggestion.empty())
      message += " (did you mean --" + std::string(suggestion) + "?)";
    return message;
  }
  return std::nullopt;
}

}  // namespace autodml::util
