// Tiny --flag=value command-line parser for examples and benches.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace autodml::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(std::string_view name) const;
  std::string get(std::string_view name, std::string_view def) const;
  std::int64_t get_int(std::string_view name, std::int64_t def) const;
  double get_double(std::string_view name, double def) const;
  bool get_bool(std::string_view name, bool def) const;

  /// The first flag on the command line that is not in `known`, as the
  /// message "unknown flag --NAME", with " (did you mean --KNOWN?)" when a
  /// known flag is within a small edit distance; nullopt when every flag
  /// is known.
  std::optional<std::string> unknown_flag(
      std::span<const std::string_view> known) const;

 private:
  std::map<std::string, std::string, std::less<>> args_;
  std::vector<std::string> order_;  // flag names in command-line order
};

}  // namespace autodml::util
