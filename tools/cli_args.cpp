#include "cli_args.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace dtr::cli {

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& raw,
                         const std::string& expected) {
  throw UsageError("--" + name + ": expected " + expected + ", got '" + raw +
                   "'");
}

}  // namespace

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string body = token.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "true";
      }
    } else if (command_.empty()) {
      command_ = token;
    } else {
      positional_.push_back(token);
    }
  }
}

bool Args::has(const std::string& name) const {
  read_[name] = true;
  return options_.count(name) != 0;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  read_[name] = true;
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::uint64_t Args::get_u64(const std::string& name, std::uint64_t fallback,
                            std::uint64_t max) const {
  if (!has(name)) return fallback;
  const std::string raw = get(name);
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (ec != std::errc{} || ptr != raw.data() + raw.size() || value > max) {
    reject(name, raw,
           max == std::numeric_limits<std::uint64_t>::max()
               ? "a non-negative integer"
               : "an integer in [0, " + std::to_string(max) + "]");
  }
  return value;
}

double Args::get_f64(const std::string& name, double fallback,
                     double max) const {
  if (!has(name)) return fallback;
  const std::string raw = get(name);
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size() || !std::isfinite(value) ||
      value < 0.0 || value > max) {
    std::ostringstream expected;
    expected << "a finite number in [0, " << max << "]";
    reject(name, raw,
           max == std::numeric_limits<double>::max()
               ? "a finite non-negative number"
               : expected.str());
  }
  return value;
}

std::uint32_t Args::get_ipv4(const std::string& name,
                             std::uint32_t fallback) const {
  if (!has(name)) return fallback;
  const std::string raw = get(name);
  const std::optional<std::uint32_t> ip = parse_ipv4(raw);
  if (!ip) reject(name, raw, "a dotted IPv4 address");
  return *ip;
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

std::optional<std::uint32_t> parse_ipv4(const std::string& s) {
  std::uint32_t out = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (pos >= s.size() || s[pos] != '.') return std::nullopt;
      ++pos;
    }
    if (pos >= s.size()) return std::nullopt;
    std::uint32_t value = 0;
    std::size_t digits = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      value = value * 10 + static_cast<std::uint32_t>(s[pos] - '0');
      ++pos;
      ++digits;
      if (value > 255 || digits > 3) return std::nullopt;
    }
    if (digits == 0) return std::nullopt;
    out = (out << 8) | value;
  }
  return pos == s.size() ? std::optional<std::uint32_t>(out) : std::nullopt;
}

}  // namespace dtr::cli
