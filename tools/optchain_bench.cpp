// optchain-bench — the one binary behind every paper figure and table.
//
//   optchain-bench list                     # name every scenario
//   optchain-bench fig4 [--flags]           # run one scenario
//   optchain-bench dynamic,churn [--flags]  # run several (comma-separated)
//   optchain-bench all [--smoke] [--jobs=N] [--json=BENCH_figs.json]
//
// Each scenario is a registered declarative api::ScenarioSpec (or a custom
// runner for the two non-grid figures) executed by api::SweepRunner; see
// bench/scenarios.{hpp,cpp}. Shared flags:
//
//   --jobs=N          sweep worker threads (results are bit-identical at
//                     any N; default 1; 0 = hardware concurrency)
//   --smoke           CI-sized streams (seconds instead of hours)
//   --json=PATH       machine-readable results, one object per scenario
//   --csv_dir=DIR     also save the figure tables as CSV
//   --seed=S --replicas=R --txs=N --issue_seconds=T
//   plus per-scenario axis overrides (--rates=, --shards=, --rate=, --k=)
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/json_writer.hpp"
#include "common/table.hpp"
#include "scenarios.hpp"

namespace {

using namespace optchain;

int usage() {
  std::fprintf(stderr,
               "usage: optchain-bench <list|all|SCENARIO[,SCENARIO...]> "
               "[--flags]\n"
               "       optchain-bench list   # names every scenario\n"
               "flags: --jobs=N --smoke --json=PATH --csv_dir=DIR --seed=S "
               "--replicas=R --txs=N --methods=A,B\n");
  return 2;
}


int cmd_list() {
  TextTable table({"scenario", "description", "reproduces"});
  for (const bench::Scenario& scenario : bench::scenarios()) {
    table.add_row({scenario.name, scenario.title, scenario.paper_ref});
  }
  table.print();
  std::printf("\nrun one with `optchain-bench <scenario>`, everything with "
              "`optchain-bench all`\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "list") return cmd_list();

  try {
    const Flags flags(argc - 1, argv + 1);
    bench::register_bench_placers();

    JsonWriter json;
    const std::string json_path = flags.get_string("json", "");
    JsonWriter* json_out = json_path.empty() ? nullptr : &json;

    int exit_code = 0;
    if (command == "all") {
      for (const bench::Scenario& scenario : bench::scenarios()) {
        // Wall-clock benchmarks (`parallel`) are excluded from `all` so its
        // JSON stays byte-identical across runs; invoke them by name.
        if (scenario.exclude_from_all) continue;
        const int code = bench::run_scenario(scenario, flags, json_out);
        exit_code = exit_code != 0 ? exit_code : code;
      }
    } else {
      const std::vector<std::string> names = split_csv(command);
      if (names.empty()) return usage();
      for (const std::string& name : names) {
        const bench::Scenario* scenario = bench::find_scenario(name);
        if (scenario == nullptr) {
          std::fprintf(stderr,
                       "optchain-bench: unknown scenario \"%s\" (see "
                       "`optchain-bench list`)\n",
                       name.c_str());
          return 2;
        }
        const int code = bench::run_scenario(*scenario, flags, json_out);
        exit_code = exit_code != 0 ? exit_code : code;
      }
    }
    if (json_out != nullptr) {
      json.save(json_path);
      std::printf("(wrote %s)\n", json_path.c_str());
    }
    return exit_code;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain-bench %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
}
