// bench-diff — throughput regression gate over BENCH_scale.json reports.
//
// Compares the headline throughput figures of a freshly produced
// bench_scale JSON against a committed baseline (bench/baselines/) and
// turns "the refactor made placement 30% slower" into a red CI run instead
// of a note someone spots weeks later:
//
//   bench-diff --baseline=bench/baselines/BENCH_scale.json \
//              --current=build/BENCH_scale.json
//
// Checked metrics: placement tx/s ("placement" → "tx_per_s") and event
// throughput ("simulation" → "events_per_s"). A regression above --warn
// (default 10%) prints a warning; above --fail (default 25%) the tool exits
// 1. Improvements always pass — the gate is one-sided. Wall-clock noise is
// why the warn band is wide and only the fail band is enforced. An unknown
// flag, like any other error, exits 2.
//
// The extractor is a deliberately tolerant scanner (find the section key,
// then the metric key after it) rather than a JSON parser — the repo has no
// JSON reader and the bench schema is flat, ordered and machine-written.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/flags.hpp"

namespace {

/// The flags the gate reads; Flags::reject_unknown refuses any other.
constexpr std::string_view kDiffFlags[] = {"baseline", "current", "warn",
                                           "fail"};

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

/// The number following `"metric_key":` after the first occurrence of
/// `"section_key"` — the bench JSON is ordered, so the first metric key past
/// the section header belongs to that section.
double extract(const std::string& json, const std::string& section_key,
               const std::string& metric_key, const std::string& path) {
  const std::size_t section = json.find("\"" + section_key + "\"");
  if (section == std::string::npos) {
    throw std::runtime_error(path + ": no \"" + section_key + "\" section");
  }
  const std::string needle = "\"" + metric_key + "\":";
  const std::size_t key = json.find(needle, section);
  if (key == std::string::npos) {
    throw std::runtime_error(path + ": no \"" + metric_key + "\" in \"" +
                             section_key + "\"");
  }
  const char* begin = json.c_str() + key + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || value <= 0.0) {
    throw std::runtime_error(path + ": unparsable \"" + metric_key + "\"");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const optchain::Flags flags(argc, argv);
    flags.reject_unknown({kDiffFlags});
    const std::string baseline_path = flags.get_string("baseline", "");
    const std::string current_path = flags.get_string("current", "");
    if (baseline_path.empty() || current_path.empty()) {
      std::fprintf(stderr,
                   "usage: bench-diff --baseline=PATH --current=PATH "
                   "[--warn=0.10] [--fail=0.25]\n");
      return 2;
    }
    const double warn = flags.get_double("warn", 0.10);
    const double fail = flags.get_double("fail", 0.25);

    const std::string baseline = read_file(baseline_path);
    const std::string current = read_file(current_path);

    struct Metric {
      const char* section;
      const char* key;
      const char* title;
    };
    const Metric metrics[] = {
        {"placement", "tx_per_s", "placement tx/s"},
        {"simulation", "events_per_s", "simulation events/s"},
    };

    int worst = 0;  // 0 = ok, 1 = warned, 2 = failed
    for (const Metric& metric : metrics) {
      const double base =
          extract(baseline, metric.section, metric.key, baseline_path);
      const double cur =
          extract(current, metric.section, metric.key, current_path);
      const double delta = (cur - base) / base;  // negative = regression
      const char* verdict = "ok";
      if (-delta > fail) {
        verdict = "FAIL";
        worst = std::max(worst, 2);
      } else if (-delta > warn) {
        verdict = "WARN";
        worst = std::max(worst, 1);
      }
      std::printf("%-20s baseline %12.0f  current %12.0f  %+6.1f%%  %s\n",
                  metric.title, base, cur, 100.0 * delta, verdict);
    }

    if (worst == 2) {
      std::fprintf(stderr,
                   "bench-diff: throughput regressed more than %.0f%% vs %s\n",
                   100.0 * fail, baseline_path.c_str());
      return 1;
    }
    if (worst == 1) {
      std::printf(
          "bench-diff: regression inside the warn band (>%.0f%%) — not "
          "fatal, worth a look\n",
          100.0 * warn);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench-diff: %s\n", error.what());
    return 2;
  }
}
