// End-to-end checks of the command-line tools, run as child processes: a
// nonsense simulation, placement or partition setting, or a flag the
// command does not read, must exit with the tool's error code and a message
// that names the offending field or flag, not abort and not fall back to a
// default. `optchain` and `optchain-bench` exit 1; optchain-serve,
// bench-diff and bench_scale exit 2 (bench-diff uses 1 for "regressed").
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct Outcome {
  int exit_code = -1;  // 128 + signal number when the CLI was killed
  std::string stderr_text;
};

/// Runs `<tool> <args>` through the shell, discarding stdout.
Outcome run_tool(const std::string& tool, const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "/cli_test.stderr";
  const std::string command = tool + " " + args + " >/dev/null 2>" + err_path;
  const int status = std::system(command.c_str());
  Outcome outcome;
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) outcome.exit_code = 128 + WTERMSIG(status);
  std::ifstream err(err_path);
  std::ostringstream text;
  text << err.rdbuf();
  outcome.stderr_text = text.str();
  std::remove(err_path.c_str());
  return outcome;
}

/// Runs `optchain <args>`.
Outcome run_cli(const std::string& args) {
  return run_tool(OPTCHAIN_CLI, args);
}

TEST(CliSimulateTest, BadSettingsExitOneNamingTheField) {
  const std::string trace = ::testing::TempDir() + "/cli_test_stream.optx";
  ASSERT_EQ(run_cli("generate --txs=3000 --seed=5 --out=" + trace).exit_code,
            0);
  const std::string simulate = "simulate --in=" + trace + " --shards=4 ";
  EXPECT_EQ(run_cli(simulate).exit_code, 0);  // the baseline run is fine

  struct Bad {
    const char* flags;
    const char* field;
  };
  const Bad cases[] = {
      {"--commit_window=0", "commit_window_s"},
      {"--slowdown=0", "shard_slowdown[0]"},
      {"--rate=nan", "tx_rate_tps"},
      {"--rate=-5", "tx_rate_tps"},
      {"--shards=0", "num_shards"},
      {"--queue_interval=nan", "queue_sample_interval_s"},
      {"--fault_rate=2", "leader_fault_rate"},
      // A given knob overrides the preset even when it is nonsense, with
      // the fabric off or on.
      {"--jitter=-0.5", "max_jitter_s"},
      {"--jitter=nan", "max_jitter_s"},
      {"--fabric=wan --jitter=-0.5", "max_jitter_s"},
      {"--regions=0", "regions"},
  };
  for (const Bad& bad : cases) {
    const Outcome outcome = run_cli(simulate + bad.flags);
    EXPECT_EQ(outcome.exit_code, 1) << bad.flags << '\n'
                                    << outcome.stderr_text;
    EXPECT_NE(outcome.stderr_text.find(bad.field), std::string::npos)
        << bad.flags << '\n'
        << outcome.stderr_text;
  }
  std::remove(trace.c_str());
}

TEST(CliPlaceTest, ZeroShardsExitsOneNamingTheField) {
  const std::string trace = ::testing::TempDir() + "/cli_test_place.optx";
  ASSERT_EQ(run_cli("generate --txs=500 --seed=5 --out=" + trace).exit_code,
            0);
  const std::string place = "place --in=" + trace + " --shards=";
  EXPECT_EQ(run_cli(place + "4").exit_code, 0);  // the baseline run is fine
  const Outcome outcome = run_cli(place + "0");
  EXPECT_EQ(outcome.exit_code, 1) << outcome.stderr_text;
  EXPECT_NE(outcome.stderr_text.find("num_shards"), std::string::npos)
      << outcome.stderr_text;
  std::remove(trace.c_str());
}

TEST(CliPartitionTest, BadSettingsExitOneNamingTheField) {
  const std::string trace = ::testing::TempDir() + "/cli_test_partition.optx";
  ASSERT_EQ(run_cli("generate --txs=500 --seed=5 --out=" + trace).exit_code,
            0);
  const std::string partition = "partition --in=" + trace + " ";
  EXPECT_EQ(run_cli(partition + "--shards=4").exit_code, 0);
  // So large a bound binds nothing; it must not overflow on the way.
  EXPECT_EQ(run_cli(partition + "--shards=4 --epsilon=1e300").exit_code, 0);

  struct Bad {
    const char* flags;
    const char* field;
  };
  const Bad cases[] = {
      {"--shards=0", "PartitionConfig: k "},
      {"--epsilon=-1", "PartitionConfig: imbalance "},
      {"--epsilon=nan", "PartitionConfig: imbalance "},
      {"--epsilon=inf", "PartitionConfig: imbalance "},
  };
  for (const Bad& bad : cases) {
    const Outcome outcome = run_cli(partition + bad.flags);
    EXPECT_EQ(outcome.exit_code, 1) << bad.flags << '\n'
                                    << outcome.stderr_text;
    EXPECT_NE(outcome.stderr_text.find(bad.field), std::string::npos)
        << bad.flags << '\n'
        << outcome.stderr_text;
  }
  std::remove(trace.c_str());
}

TEST(CliFlagsTest, UnknownFlagExitsOneNamingIt) {
  const std::string trace = ::testing::TempDir() + "/cli_test_flags.optx";
  ASSERT_EQ(run_cli("generate --txs=500 --seed=5 --out=" + trace).exit_code,
            0);
  const std::string place = "place --in=" + trace + " --method=OptChain ";
  // A misspelt --shards used to place over the default 16 shards.
  for (const char* flag : {"shard", "no_such_flag"}) {
    const Outcome outcome = run_cli(place + "--" + flag + "=4");
    EXPECT_EQ(outcome.exit_code, 1) << flag << '\n' << outcome.stderr_text;
    EXPECT_NE(outcome.stderr_text.find(std::string("unknown flag --") + flag +
                                       "\n"),
              std::string::npos)
        << outcome.stderr_text;
  }
  std::remove(trace.c_str());
}

/// `tool <args> --no_such=1` exits 2, naming the flag, before it opens a
/// file or starts any work.
void expect_unknown_flag_refused(const std::string& tool,
                                 const std::string& args) {
  const Outcome outcome = run_tool(tool, args + " --no_such=1");
  EXPECT_EQ(outcome.exit_code, 2) << tool << '\n' << outcome.stderr_text;
  EXPECT_NE(outcome.stderr_text.find("unknown flag --no_such\n"),
            std::string::npos)
      << tool << '\n'
      << outcome.stderr_text;
}

TEST(CliFlagsTest, ServeRefusesUnknownFlags) {
  expect_unknown_flag_refused(OPTCHAIN_SERVE, "--trace=snapshot.optx");
  // The flags CI passes get past the check: the run fails only on the
  // missing trace.
  const Outcome outcome = run_tool(
      OPTCHAIN_SERVE,
      "--trace=" + ::testing::TempDir() + "/cli_test_missing.optx " +
          "--duration=5s --snapshot=2 --out=" + ::testing::TempDir() +
          "/cli_test_serve.json");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.stderr_text;
  EXPECT_EQ(outcome.stderr_text.find("unknown flag"), std::string::npos)
      << outcome.stderr_text;
}

TEST(CliFlagsTest, BenchDiffRefusesUnknownFlags) {
  expect_unknown_flag_refused(BENCH_DIFF,
                              "--baseline=a.json --current=b.json");
  // The flags CI passes get past the check: the run fails only on the
  // missing files.
  const Outcome outcome = run_tool(
      BENCH_DIFF, "--baseline=" + ::testing::TempDir() +
                      "/cli_test_missing.json --current=b.json --warn=0.1 "
                      "--fail=0.25");
  EXPECT_EQ(outcome.exit_code, 2) << outcome.stderr_text;
  EXPECT_NE(outcome.stderr_text.find("cannot open"), std::string::npos)
      << outcome.stderr_text;
}

TEST(CliBenchTest, BadIssueWindowExitsOneNamingTheField) {
#ifdef OPTCHAIN_BENCH
  const std::string fig4 = "fig4 --smoke --methods=OmniLedger --issue_seconds=";
  EXPECT_EQ(run_tool(OPTCHAIN_BENCH, fig4 + "0.2").exit_code, 0);
  for (const char* value : {"-1", "0", "nan", "inf"}) {
    const Outcome outcome = run_tool(OPTCHAIN_BENCH, fig4 + value);
    EXPECT_EQ(outcome.exit_code, 1) << value << ": " << outcome.stderr_text;
    EXPECT_NE(outcome.stderr_text.find("issue_seconds"), std::string::npos)
        << value << ": " << outcome.stderr_text;
  }
#else
  GTEST_SKIP() << "optchain-bench is not built (OPTCHAIN_BUILD_BENCH=OFF)";
#endif
}

TEST(CliFlagsTest, BenchScaleRefusesUnknownFlags) {
#ifdef BENCH_SCALE
  expect_unknown_flag_refused(BENCH_SCALE,
                              "--smoke --txs=1000 --sim_txs=200 --out=" +
                                  ::testing::TempDir() + "/cli_test.json");
#else
  GTEST_SKIP() << "bench_scale is not built (OPTCHAIN_BUILD_BENCH=OFF)";
#endif
}

}  // namespace
