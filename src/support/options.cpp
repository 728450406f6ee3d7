#include "support/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace speckle::support {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    const std::string key = body.substr(0, eq);
    if (key.empty()) {
      std::fprintf(stderr, "empty option name in '%s'\n", arg.c_str());
      std::exit(2);
    }
    values_[key] = eq == std::string::npos ? "true" : body.substr(eq + 1);
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
  errno = 0;
  long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (it->second.empty() || *end != '\0' || errno == ERANGE) {
    reject(key, "expects an integer, got '" + it->second + "'");
  }
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || *end != '\0') {
    reject(key, "expects a number, got '" + it->second + "'");
  }
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject(key, "expects a boolean, got '" + v + "'");
}

std::uint64_t Options::parse_uint(const std::string& key, const std::string& text,
                                  std::uint64_t max) {
  // strtoull alone would accept "-1" (and leading blanks) and wrap it.
  const bool digits_only =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  errno = 0;
  const std::uint64_t v = digits_only ? std::strtoull(text.c_str(), nullptr, 10) : 0;
  if (!digits_only || errno == ERANGE || v > max) {
    reject(key, "expects an integer in [0, " + std::to_string(max) + "], got '" +
                    text + "'");
  }
  return v;
}

std::vector<std::uint32_t> Options::get_uint_list(const std::string& key,
                                                  const std::string& fallback) const {
  std::vector<std::uint32_t> out;
  std::stringstream ss(get_string(key, fallback));
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(static_cast<std::uint32_t>(
        parse_uint(key, item, std::numeric_limits<std::uint32_t>::max())));
  }
  return out;
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

void Options::reject(const std::string& key, const std::string& why) {
  std::fprintf(stderr, "option --%s: %s\n", key.c_str(), why.c_str());
  std::exit(2);
}

}  // namespace speckle::support
