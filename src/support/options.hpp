#pragma once
/// \file options.hpp
/// Tiny command-line option parser shared by benches and examples.
///
/// Syntax: `--key=value`, `--flag` (boolean true), positional arguments are
/// collected in order. Unknown keys are an error only when validate() is
/// called with a whitelist, so quick experiments stay frictionless.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace speckle::support {

class Options {
 public:
  /// Parse argv (argv[0] skipped). Aborts on malformed input (e.g. "--=x").
  Options(int argc, char** argv);

  /// Typed getters with defaults.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  bool has(const std::string& key) const;
  const std::vector<std::string>& positional() const { return positional_; }

  /// If any parsed key is not in `known`, print it and the accepted keys to
  /// stderr and exit(2). Call after all getters.
  void validate(const std::vector<std::string>& known) const;

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace speckle::support
