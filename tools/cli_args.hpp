// Minimal command-line argument parser for the donkeytrace CLI.
// Supports `--name value`, `--name=value` and boolean `--flag` forms; the
// first non-flag token is the subcommand, further bare tokens are
// positional.
//
// The typed getters return the fallback only when the flag is absent.  A
// value that does not parse, or does not fit the caller's type or range,
// throws UsageError naming the flag; main() turns it into exit code 2.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtr::cli {

/// A malformed or out-of-range option value.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args {
 public:
  Args(int argc, char** argv);

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  /// A decimal integer in [0, max].
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& name, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// get_u64 bounded by the range of the unsigned type T.
  template <typename T>
  [[nodiscard]] T get_uint(const std::string& name, T fallback) const {
    return static_cast<T>(
        get_u64(name, fallback, std::numeric_limits<T>::max()));
  }
  /// A finite number in [0, max].
  [[nodiscard]] double get_f64(
      const std::string& name, double fallback,
      double max = std::numeric_limits<double>::max()) const;
  /// A dotted IPv4 address, host order.
  [[nodiscard]] std::uint32_t get_ipv4(const std::string& name,
                                       std::uint32_t fallback) const;

  /// Options that were passed but never read — typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::string command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> read_;
};

/// Parse dotted IPv4 ("1.2.3.4") to host-order u32; nullopt on bad input.
std::optional<std::uint32_t> parse_ipv4(const std::string& s);

}  // namespace dtr::cli
