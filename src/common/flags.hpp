// Minimal `--name=value` command-line flag parsing for the bench/example
// binaries. Flags starting with "--benchmark" are ignored so the same argv
// can be shared with google-benchmark binaries.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace optchain {

/// Splits comma-separated text into its non-empty items ("a,,b" → {a, b};
/// "" → {}). The parsing behind every list-valued flag and the bench tool's
/// scenario lists.
std::vector<std::string> split_csv(const std::string& text);

class Flags {
 public:
  /// Parses argv. Throws std::invalid_argument on a malformed flag
  /// (non "--name[=value]" token).
  Flags(int argc, const char* const* argv);

  /// Throws std::invalid_argument("unknown flag --<name>") for a flag given
  /// whose name is in none of the `known` lists. A tool calls it once per
  /// command with the names that command reads, so a mistyped flag fails
  /// instead of leaving a default in place. (--benchmark* flags are never
  /// stored, so they never count.)
  void reject_unknown(
      std::initializer_list<std::span<const std::string_view>> known) const;

  bool has(const std::string& name) const noexcept;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --shards=4,8,16.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Comma-separated double list, e.g. --slowdown=6.0,1.0,2.5.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback) const;

  /// Comma-separated string list, e.g. --methods=OptChain,Greedy. An
  /// explicitly empty value (--methods=) yields an empty list — consumers
  /// decide whether that is an error (the bench axes treat it as one).
  std::vector<std::string> get_string_list(
      const std::string& name, std::vector<std::string> fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace optchain
