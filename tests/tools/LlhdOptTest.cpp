//===- tests/tools/LlhdOptTest.cpp - llhd-opt driver contract ----------===//
//
// Black-box contract of the llhd-opt command-line driver: the built
// binary is spawned on a shipped example and its handling of malformed
// option values is pinned — a diagnostic and the usage exit code 1,
// never an uncaught exception.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

const std::string Acc = std::string(LLHD_SOURCE_DIR) + "/examples/acc_tb.llhd";

struct OptResult {
  int Exit = -1;
  std::string Err;
};

class LlhdOptTest : public ::testing::Test {
protected:
  std::string Dir;

  void SetUp() override {
    std::string Tmpl = ::testing::TempDir() + "llhd_opt_XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl.data()), nullptr);
    Dir = Tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  /// Runs llhd-opt with \p Args (shell words) and captures stderr.
  OptResult opt(const std::string &Args) {
    std::string Err = Dir + "/stderr";
    std::string Cmd = std::string("'") + LLHD_OPT_PATH + "' " + Args +
                      " >/dev/null 2>'" + Err + "' </dev/null";
    int St = std::system(Cmd.c_str());
    OptResult R;
    R.Exit = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
    std::ifstream In(Err, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    R.Err = SS.str();
    return R;
  }
};

// --threads takes a whole number that fits: no letters, no empty value,
// no overflow. Each is a diagnostic and exit 1, not an abort.
TEST_F(LlhdOptTest, ThreadsRejectsMalformedValues) {
  for (const char *V : {"abc", "", "99999999999999999999999", "-1", "2x"}) {
    std::string Flag = std::string("--threads=") + V;
    OptResult R = opt(Acc + " --lower --no-output " + Flag);
    EXPECT_EQ(R.Exit, 1) << Flag << ": " << R.Err;
    EXPECT_EQ(R.Err, "llhd-opt: invalid value in '" + Flag + "'\n") << Flag;
  }
  OptResult Ok = opt(Acc + " --lower --no-output --threads=2");
  EXPECT_EQ(Ok.Exit, 0) << Ok.Err;
  EXPECT_EQ(Ok.Err.find("invalid value"), std::string::npos) << Ok.Err;
}

} // namespace
