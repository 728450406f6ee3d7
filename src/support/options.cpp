#include "support/options.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"

namespace speckle::support {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    SPECKLE_CHECK(!body.empty(), "empty option name in '" + arg + "'");
    auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      std::string key = body.substr(0, eq);
      SPECKLE_CHECK(!key.empty(), "empty option name in '" + arg + "'");
      values_[key] = body.substr(eq + 1);
    }
  }
}

std::string Options::get_string(const std::string& key, const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  SPECKLE_CHECK(end != nullptr && *end == '\0',
                "option --" + key + " expects an integer, got '" + it->second + "'");
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  SPECKLE_CHECK(end != nullptr && *end == '\0',
                "option --" + key + " expects a number, got '" + it->second + "'");
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  SPECKLE_CHECK(false, "option --" + key + " expects a boolean, got '" + v + "'");
  return fallback;
}

bool Options::has(const std::string& key) const { return values_.count(key) != 0; }

void Options::validate(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string accepted;
    for (const std::string& k : known) accepted += " --" + k;
    std::fprintf(stderr, "unknown option --%s; accepted:%s\n", key.c_str(),
                 accepted.c_str());
    std::exit(2);
  }
}

}  // namespace speckle::support
