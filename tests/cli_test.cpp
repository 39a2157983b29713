// End-to-end checks of the `optchain` command-line tool, run as a child
// process: a nonsense simulation or placement setting must exit 1 with a
// message that names the offending field, not abort and not fall back to a
// default.
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

/// Runs `optchain <args>` through the shell, discarding stdout.
Outcome run_cli(const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "/cli_test.stderr";
  const std::string command =
      std::string(OPTCHAIN_CLI) + " " + args + " >/dev/null 2>" + err_path;
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

}  // namespace
