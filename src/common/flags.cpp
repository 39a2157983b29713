#include "common/flags.hpp"

#include <algorithm>
#include <stdexcept>

namespace optchain {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.rfind("--benchmark", 0) == 0) continue;  // google-benchmark's
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unrecognized argument: " +
                                  std::string(token));
    }
    const std::string_view body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(body)] = "true";
    } else {
      values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
    }
  }
}

void Flags::reject_unknown(
    std::initializer_list<std::span<const std::string_view>> known) const {
  for (const auto& [name, value] : values_) {
    const auto in_list = [&name](std::span<const std::string_view> names) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    if (std::none_of(known.begin(), known.end(), in_list)) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

bool Flags::has(const std::string& name) const noexcept {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::stoll(it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::stod(it->second);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const std::string& item : split_csv(it->second)) {
    out.push_back(std::stoll(item));
  }
  return out;
}

std::vector<double> Flags::get_double_list(
    const std::string& name, std::vector<double> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<double> out;
  for (const std::string& item : split_csv(it->second)) {
    out.push_back(std::stod(item));
  }
  return out;
}

std::vector<std::string> Flags::get_string_list(
    const std::string& name, std::vector<std::string> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return split_csv(it->second);
}

}  // namespace optchain
