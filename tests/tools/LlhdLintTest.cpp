//===- tests/tools/LlhdLintTest.cpp - llhd-lint driver contract --------===//
//
// Black-box contract of the llhd-lint command-line driver: the built
// binary is spawned on the shipped examples and its exit codes
// (0 clean, 1 error findings, 64 usage, 65 frontend error, 66 i/o
// error), its language selection, stdin input, top selection and
// waiver-file handling are pinned, with the stderr line each failure
// prints.
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

const std::string Examples = std::string(LLHD_SOURCE_DIR) + "/examples/";
const std::string MultiDrive = Examples + "lint/multi-drive.llhd";

/// A process ending in `ret`, which only a function may hold.
const char *RetInProcessSrc = R"(
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
entry:
  ret
}
)";

/// A function that probes a signal, which only processes and entities
/// may do.
const char *PrbInFunctionSrc = R"(
entity @top () -> () {
  %z = const i8 0
  %s = sig i8 %z
  inst @p (i8$ %s) -> ()
}
func @f (i8$ %s) i8 {
entry:
  %v = prb i8$ %s
  ret i8 %v
}
proc @p (i8$ %s) -> () {
entry:
  %v = call i8 @f (i8$ %s)
  halt
}
)";

/// A process with a block no branch reaches, whose code uses values the
/// entry defines: dead code to warn about, not a verifier error.
const char *DeadCodeSrc = R"(
entity @top () -> () {
  %z = const i8 0
  %s = sig i8 %z
  inst @p (i8$ %s) -> ()
}
proc @p (i8$ %s) -> () {
entry:
  %v = prb i8$ %s
  %t = const time 1ns
  drv i8$ %s, %v after %t
  halt
dead:
  %w = add i8 %v, %v
  drv i8$ %s, %w after %t
  halt
}
)";

struct LintResult {
  int Exit = -1;
  std::string Out, Err;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class LlhdLintTest : public ::testing::Test {
protected:
  std::string Dir;

  void SetUp() override {
    std::string Tmpl = ::testing::TempDir() + "llhd_lint_XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl.data()), nullptr);
    Dir = Tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::string path(const std::string &Name) const { return Dir + "/" + Name; }

  std::string write(const std::string &Name, const std::string &Text) {
    std::ofstream(path(Name), std::ios::binary) << Text;
    return path(Name);
  }

  /// Runs llhd-lint with \p Args (shell words), stdin from \p Stdin, and
  /// captures both output streams.
  LintResult lint(const std::string &Args,
                  const std::string &Stdin = "/dev/null") {
    std::string Cmd = std::string("'") + LLHD_LINT_PATH + "' " + Args +
                      " >'" + path("stdout") + "' 2>'" + path("stderr") +
                      "' <'" + Stdin + "'";
    int St = std::system(Cmd.c_str());
    LintResult R;
    R.Exit = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
    R.Out = slurp(path("stdout"));
    R.Err = slurp(path("stderr"));
    return R;
  }
};

TEST_F(LlhdLintTest, ExitCodes) {
  LintResult Clean = lint(Examples + "acc_tb.llhd");
  EXPECT_EQ(Clean.Exit, 0) << Clean.Err;
  EXPECT_EQ(Clean.Err, "");

  LintResult Findings = lint(MultiDrive);
  EXPECT_EQ(Findings.Exit, 1);
  EXPECT_NE(Findings.Err.find("error: [multi-drive] md_top/s"),
            std::string::npos)
      << Findings.Err;

  EXPECT_EQ(lint("").Exit, 64);
  EXPECT_EQ(lint(MultiDrive + " --no-such-flag").Exit, 64);
  LintResult Two = lint(MultiDrive + " " + MultiDrive);
  EXPECT_EQ(Two.Exit, 64);
  EXPECT_EQ(Two.Err, "llhd-lint: more than one input file\n");
  LintResult NoCheck = lint("-Wno-nosuch " + MultiDrive);
  EXPECT_EQ(NoCheck.Exit, 64);
  EXPECT_EQ(NoCheck.Err, "llhd-lint: unknown check 'nosuch' in "
                         "'-Wno-nosuch'\n");

  LintResult Bad = lint(write("bad.llhd", "garbage\n"));
  EXPECT_EQ(Bad.Exit, 65);
  EXPECT_EQ(Bad.Err.rfind("llhd-lint: ", 0), 0u) << Bad.Err;

  LintResult Missing = lint(path("missing.llhd"));
  EXPECT_EQ(Missing.Exit, 66);
  EXPECT_EQ(Missing.Err,
            "llhd-lint: cannot open '" + path("missing.llhd") + "'\n");
}

// Input the IR verifier rejects is a frontend error (exit 65) with the
// verifier's message.
TEST_F(LlhdLintTest, UnverifiableInputIsFrontendError) {
  LintResult Ret = lint(write("ret.llhd", RetInProcessSrc));
  EXPECT_EQ(Ret.Exit, 65) << Ret.Err;
  EXPECT_EQ(Ret.Err, "llhd-lint: @p: 'ret' not allowed in this unit kind in "
                     "'ret'\n");
  LintResult Prb = lint(write("prb.llhd", PrbInFunctionSrc));
  EXPECT_EQ(Prb.Exit, 65) << Prb.Err;
  EXPECT_NE(Prb.Err.find("llhd-lint: @f: 'prb' not allowed in this unit kind"),
            std::string::npos)
      << Prb.Err;
}

// Dead code that uses live values verifies: the lint warns about the
// block and exits 0.
TEST_F(LlhdLintTest, DeadCodeUsingLiveValuesIsAWarning) {
  LintResult R = lint(write("dead.llhd", DeadCodeSrc));
  EXPECT_EQ(R.Exit, 0) << R.Err;
  EXPECT_NE(R.Err.find("warning: [unreachable] @p: block 'dead'"),
            std::string::npos)
      << R.Err;
}

TEST_F(LlhdLintTest, LanguageFlagsOverrideExtension) {
  // By extension: .sv goes through the Moore frontend, the top module
  // is detected.
  EXPECT_EQ(lint(Examples + "gray.sv").Exit, 0);
  // The same text under a .llhd name parses only with --sv.
  std::string Sv = write("gray.llhd", slurp(Examples + "gray.sv"));
  EXPECT_EQ(lint("--sv " + Sv).Exit, 0);
  EXPECT_EQ(lint(Sv).Exit, 65);
  // And LLHD assembly under a .sv name needs --llhd.
  std::string Llhd = write("md.sv", slurp(MultiDrive));
  EXPECT_EQ(lint("--llhd " + Llhd).Exit, 1);
  LintResult AsSv = lint(Llhd);
  EXPECT_EQ(AsSv.Exit, 65);
  EXPECT_EQ(AsSv.Err.rfind("llhd-lint: ", 0), 0u) << AsSv.Err;
}

TEST_F(LlhdLintTest, StdinInput) {
  // "-" reads the design from stdin, as LLHD assembly by default.
  LintResult R = lint("-", MultiDrive);
  EXPECT_EQ(R.Exit, 1) << R.Err;
  EXPECT_NE(R.Err.find("[multi-drive] md_top/s"), std::string::npos)
      << R.Err;
  EXPECT_EQ(lint("--sv -", Examples + "gray.sv").Exit, 0);
  EXPECT_EQ(lint("-", Examples + "gray.sv").Exit, 65);
}

TEST_F(LlhdLintTest, UnknownTopIsFrontendError) {
  LintResult R = lint(Examples + "acc_tb.llhd --top=nosuch");
  EXPECT_EQ(R.Exit, 65);
  EXPECT_EQ(R.Err, "llhd-lint: top unit @nosuch not found\n");
  LintResult Sv = lint(Examples + "gray.sv --top=nosuch");
  EXPECT_EQ(Sv.Exit, 65);
  EXPECT_EQ(Sv.Err.rfind("llhd-lint: ", 0), 0u) << Sv.Err;
  // A unit that exists is taken as given.
  EXPECT_EQ(lint(MultiDrive + " --top=md_top").Exit, 1);
}

TEST_F(LlhdLintTest, Waivers) {
  // A matching waiver suppresses the finding.
  std::string W = write("ok.waive", "# known\nmulti-drive md_top/*\n");
  LintResult Ok = lint(MultiDrive + " --waivers=" + W);
  EXPECT_EQ(Ok.Exit, 0) << Ok.Err;
  // An unreadable waiver file is an i/o error.
  LintResult Missing = lint(MultiDrive + " --waivers=" + path("none"));
  EXPECT_EQ(Missing.Exit, 66);
  EXPECT_EQ(Missing.Err, "llhd-lint: cannot open waiver file '" +
                             path("none") + "'\n");
  // A malformed one is a usage error naming the line.
  std::string Bad = write("bad.waive", "multi-drive\n");
  LintResult Malformed = lint(MultiDrive + " --waivers=" + Bad);
  EXPECT_EQ(Malformed.Exit, 64);
  EXPECT_EQ(Malformed.Err,
            "llhd-lint: " + Bad +
                ": waiver line 1: expected '<check-id|*> <location-glob>'\n");
  std::string Unknown = write("unknown.waive", "no-such-check *\n");
  EXPECT_EQ(lint(MultiDrive + " --waivers=" + Unknown).Exit, 64);
}

} // namespace
