#pragma once
/// \file options.hpp
/// Tiny command-line option parser shared by benches and examples.
///
/// Syntax: `--key=value`, `--flag` (boolean true), positional arguments are
/// collected in order. Unknown keys are an error only when validate() is
/// called with a whitelist, so quick experiments stay frictionless.
///
/// A bad flag is a usage error, never a crash: malformed syntax, a value
/// the getter cannot parse, an out-of-range value and an unknown key all
/// print one line naming the flag to stderr and exit(2). Tools reject
/// values the getters cannot judge (an unknown scheme name, a seed of 0)
/// through reject(), so no flag value reaches SPECKLE_CHECK.

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace speckle::support {

class Options {
 public:
  /// Parse argv (argv[0] skipped). Exits 2 on malformed input (e.g. "--=x").
  Options(int argc, char** argv);

  /// Typed getters with defaults.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// An unsigned value in [0, max]: a sign, a non-digit or a value past
  /// `max` exits 2 instead of wrapping.
  template <typename T>
  T get_uint(const std::string& key, T fallback,
             T max = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return static_cast<T>(parse_uint(key, it->second, max));
  }
  /// The value looked up by `find` (a name -> std::optional-like lookup);
  /// an unknown name exits 2 listing `accepted`.
  template <typename Find>
  auto get_choice(const std::string& key, const std::string& fallback, Find find,
                  const std::string& accepted) const {
    const std::string value = get_string(key, fallback);
    const auto found = find(value);
    if (!found) reject(key, "unknown value '" + value + "'; accepted: " + accepted);
    return *found;
  }
  /// A comma-separated list of unsigned values, each bounded as get_uint.
  std::vector<std::uint32_t> get_uint_list(const std::string& key,
                                           const std::string& fallback) const;

  bool has(const std::string& key) const;
  const std::vector<std::string>& positional() const { return positional_; }

  /// If any parsed key is not in `known`, print it and the accepted keys to
  /// stderr and exit(2). Call after all getters.
  void validate(const std::vector<std::string>& known) const;

  /// Print "option --<key>: <why>" to stderr and exit(2).
  [[noreturn]] static void reject(const std::string& key, const std::string& why);

 private:
  static std::uint64_t parse_uint(const std::string& key, const std::string& text,
                                  std::uint64_t max);

  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace speckle::support
