//===- tests/tools/LlhdSimTest.cpp - llhd-sim driver contract ----------===//
//
// Black-box contract of the llhd-sim command-line driver: the built
// binary is spawned on the shipped examples and its exit codes, the
// stderr lines CI greps for, its waveforms and its checkpoint/resume
// behavior are pinned. Plain, --batch and --diff-engines runs must
// report alike: the same stop diagnostics, the same stats lines and the
// same exit-code precedence.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

const std::string Examples = std::string(LLHD_SOURCE_DIR) + "/examples/";

/// A design whose only process fails an assertion and halts.
const char *AssertSrc = R"(
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
entry:
  %f = const i1 0
  call void @llhd.assert (i1 %f)
  halt
}
)";

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

struct SimResult {
  int Exit = -1;
  std::string Out, Err;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

size_t count(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Text.find(Needle); P != std::string::npos;
       P = Text.find(Needle, P + 1))
    ++N;
  return N;
}

/// Every "digest <hex>" on the stats lines of \p Err, in order.
std::vector<std::string> digests(const std::string &Err) {
  std::vector<std::string> D;
  std::regex Re("digest ([0-9a-f]{16})");
  for (auto It = std::sregex_iterator(Err.begin(), Err.end(), Re);
       It != std::sregex_iterator(); ++It)
    D.push_back((*It)[1]);
  return D;
}

class LlhdSimTest : public ::testing::Test {
protected:
  std::string Dir;

  void SetUp() override {
    std::string Tmpl = ::testing::TempDir() + "llhd_sim_XXXXXX";
    ASSERT_NE(::mkdtemp(Tmpl.data()), nullptr);
    Dir = Tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::string path(const std::string &Name) const { return Dir + "/" + Name; }

  std::string write(const std::string &Name, const std::string &Text) {
    std::ofstream(path(Name), std::ios::binary) << Text;
    return path(Name);
  }

  /// Runs llhd-sim with \p Args (shell words) and captures both streams.
  SimResult sim(const std::string &Args) {
    std::string Cmd = std::string("'") + LLHD_SIM_PATH + "' " + Args +
                      " >'" + path("stdout") + "' 2>'" + path("stderr") +
                      "' </dev/null";
    int St = std::system(Cmd.c_str());
    SimResult R;
    R.Exit = WIFEXITED(St) ? WEXITSTATUS(St) : -1;
    R.Out = slurp(path("stdout"));
    R.Err = slurp(path("stderr"));
    return R;
  }
};

// A number too large for its field is a parse diagnostic (exit 65), in
// an .llhd type width and in a SystemVerilog literal size alike; neither
// may abort the tool.
TEST_F(LlhdSimTest, OutOfRangeNumbersAreParseDiagnostics) {
  SimResult Llhd = sim(write("wide.llhd", "entity @top () -> () {\n"
                                          "  %c = const i99999999999999999999 0\n"
                                          "}\n"));
  EXPECT_EQ(Llhd.Exit, 65) << Llhd.Err;
  EXPECT_NE(Llhd.Err.find("out of range"), std::string::npos) << Llhd.Err;

  SimResult Sv = sim(write("wide.sv", "module top;\n"
                                      "  logic [7:0] x;\n"
                                      "  initial x = 99999999999999999999'd5;\n"
                                      "endmodule\n") +
                     " --top=top");
  EXPECT_EQ(Sv.Exit, 65) << Sv.Err;
  EXPECT_NE(Sv.Err.find("out of range"), std::string::npos) << Sv.Err;
}

TEST_F(LlhdSimTest, ExitCodes) {
  EXPECT_EQ(sim(Examples + "acc_tb.llhd").Exit, 0);
  EXPECT_EQ(sim(write("assert.llhd", AssertSrc)).Exit, 1);
  // Engines stopped by a wall-clock budget end at different instants:
  // the cross-check reports the divergence, and it beats the stop code.
  SimResult Div = sim(Examples + "counter.llhd --until=1s --timeout=0.02 "
                                 "--diff-engines");
  EXPECT_EQ(Div.Exit, 2) << Div.Err;
  EXPECT_NE(Div.Err.find("DIVERGENCE"), std::string::npos) << Div.Err;
  EXPECT_EQ(sim(Examples + "acc_tb.llhd --no-such-flag").Exit, 64);
  EXPECT_EQ(sim(write("bad.llhd", "garbage\n")).Exit, 65);
  EXPECT_EQ(sim(path("missing.llhd")).Exit, 66);
  EXPECT_EQ(sim(Examples + "acc_tb.llhd --vcd=" + path("no/dir/a.vcd")).Exit,
            66);
  EXPECT_EQ(
      sim(Examples + "counter.llhd --until=1us --max-deltas=10").Exit, 82);
  SimResult Osc = sim(Examples + "osc.llhd --until=10ns");
  EXPECT_EQ(Osc.Exit, 83);
  EXPECT_NE(Osc.Err.find("osc_top/osc"), std::string::npos) << Osc.Err;
  EXPECT_NE(Osc.Err.find("osc_top/x"), std::string::npos) << Osc.Err;
  EXPECT_EQ(sim(Examples + "counter.llhd --resume=" +
                write("bad.img", "not a checkpoint"))
                .Exit,
            84);
  EXPECT_EQ(sim(Examples + "osc.llhd --lint").Exit, 86);
}

TEST_F(LlhdSimTest, BlazeStatsLines) {
  SimResult R = sim(Examples + "acc_tb.llhd --engine=blaze --stats");
  ASSERT_EQ(R.Exit, 0) << R.Err;
  EXPECT_TRUE(std::regex_search(
      R.Err, std::regex("blaze jit: .* [1-9][0-9]* native / ")))
      << R.Err;
  EXPECT_TRUE(std::regex_search(
      R.Err, std::regex("drives scheduled \\([1-9][0-9]* word lane\\)")))
      << R.Err;
}

// With a VCD, --stats adds one "vcd:" line: the writer's variables,
// dumped changes and bytes, the last equal to the file's size.
TEST_F(LlhdSimTest, StatsReportVcdCounts) {
  std::string Vcd = path("acc.vcd");
  SimResult R = sim(Examples + "acc_tb.llhd --stats --vcd=" + Vcd);
  ASSERT_EQ(R.Exit, 0) << R.Err;
  std::smatch M;
  ASSERT_TRUE(std::regex_search(
      R.Err, M,
      std::regex("\nvcd: ([0-9]+) vars, ([1-9][0-9]*) changes dumped, "
                 "([0-9]+) bytes\n")))
      << R.Err;
  EXPECT_EQ(M[1], "5");
  EXPECT_EQ(std::stoull(M[3]), slurp(Vcd).size());
  EXPECT_EQ(count(R.Err, "vcd: "), 1u) << R.Err;
  // No dump, no line.
  SimResult NoVcd = sim(Examples + "acc_tb.llhd --stats");
  ASSERT_EQ(NoVcd.Exit, 0) << NoVcd.Err;
  EXPECT_EQ(count(NoVcd.Err, "vcd: "), 0u) << NoVcd.Err;
}

TEST_F(LlhdSimTest, VcdByteIdenticalAcrossEngines) {
  std::vector<std::string> Dumps;
  for (const char *E : {"interp", "blaze", "blaze --jit=off"}) {
    std::string Vcd = path("run.vcd");
    SimResult R = sim(Examples + "acc_tb.llhd --engine=" + E + " --vcd=" + Vcd);
    ASSERT_EQ(R.Exit, 0) << E << ": " << R.Err;
    Dumps.push_back(slurp(Vcd));
  }
  ASSERT_FALSE(Dumps[0].empty());
  EXPECT_EQ(Dumps[0], Dumps[1]);
  EXPECT_EQ(Dumps[0], Dumps[2]);
}

TEST_F(LlhdSimTest, DiffEnginesReportsMatch) {
  SimResult R = sim(Examples + "acc_tb.llhd --diff-engines");
  ASSERT_EQ(R.Exit, 0) << R.Err;
  EXPECT_NE(R.Out.find("traces match across interp/blaze"),
            std::string::npos)
      << R.Out;
}

TEST_F(LlhdSimTest, BatchOfOneMatchesPlainRun) {
  const std::string Args =
      Examples + "counter.llhd --until=200ns --seed=3 --stats";
  SimResult Plain = sim(Args);
  SimResult Batch = sim(Args + " --batch=1");
  ASSERT_EQ(Plain.Exit, 0) << Plain.Err;
  ASSERT_EQ(Batch.Exit, 0) << Batch.Err;
  std::vector<std::string> P = digests(Plain.Err), B = digests(Batch.Err);
  ASSERT_EQ(P.size(), 1u) << Plain.Err;
  ASSERT_EQ(B.size(), 1u) << Batch.Err;
  EXPECT_EQ(P[0], B[0]);
}

// Input the IR verifier rejects is a frontend error (exit 65) with the
// verifier's message, never something to simulate.
TEST_F(LlhdSimTest, UnverifiableInputIsFrontendError) {
  SimResult Ret = sim(write("ret.llhd", RetInProcessSrc));
  EXPECT_EQ(Ret.Exit, 65) << Ret.Err;
  EXPECT_NE(Ret.Err.find("llhd-sim: @p: 'ret' not allowed in this unit kind"),
            std::string::npos)
      << Ret.Err;
  SimResult Prb = sim(write("prb.llhd", PrbInFunctionSrc));
  EXPECT_EQ(Prb.Exit, 65) << Prb.Err;
  EXPECT_NE(Prb.Err.find("llhd-sim: @f: 'prb' not allowed in this unit kind"),
            std::string::npos)
      << Prb.Err;
}

// Dead code that uses live values verifies and simulates, in .llhd and
// in SystemVerilog (a loop left by `if (...) break;`).
TEST_F(LlhdSimTest, DeadCodeUsingLiveValuesSimulates) {
  SimResult R = sim(write("dead.llhd", DeadCodeSrc));
  EXPECT_EQ(R.Exit, 0) << R.Err;
  SimResult Sv = sim(write("brk.sv", R"(
module brk_tb;
  bit [7:0] x;
  initial begin
    bit [7:0] i;
    i = 0;
    forever begin
      if (i == 8'd3) break;
      i = i + 8'd1;
    end
    x = i;
    assert(x == 8'd3);
  end
endmodule
)"));
  EXPECT_EQ(Sv.Exit, 0) << Sv.Err;
}

// An empty image is a resume request that fails like a truncated one:
// exit 84, and the VCD it would have appended to keeps its bytes.
TEST_F(LlhdSimTest, EmptyResumeImageIsRejected) {
  std::string Vcd = path("a.vcd");
  const std::string Base = Examples + "counter.llhd --until=5ns --vcd=" + Vcd;
  ASSERT_EQ(sim(Base).Exit, 0);
  std::string Before = slurp(Vcd);
  ASSERT_FALSE(Before.empty());
  SimResult R = sim(Base + " --resume=" + write("empty.ckpt", ""));
  EXPECT_EQ(R.Exit, 84) << R.Err;
  EXPECT_NE(R.Err.find("cannot resume: "), std::string::npos) << R.Err;
  EXPECT_EQ(slurp(Vcd), Before);
}

// Budget stop + checkpoint, then resume with a doubled budget appending to
// the same VCD: the stitched dump equals one run under the doubled budget
// (step counters are part of the checkpoint, so both stop at one instant).
TEST_F(LlhdSimTest, BudgetStopAndResume) {
  for (const char *E : {"interp", "blaze", "blaze --jit=off"}) {
    const std::string Base = Examples + "counter.llhd --until=10us --engine=" +
                             std::string(E);
    std::string Part = path("part.vcd"), Ref = path("ref.vcd"),
                Img = path("img");
    SimResult First =
        sim(Base + " --max-deltas=300 --checkpoint=" + Img + " --vcd=" + Part);
    ASSERT_EQ(First.Exit, 82) << E << ": " << First.Err;
    SimResult Resumed =
        sim(Base + " --max-deltas=600 --resume=" + Img + " --vcd=" + Part);
    ASSERT_EQ(Resumed.Exit, 82) << E << ": " << Resumed.Err;
    SimResult Whole = sim(Base + " --max-deltas=600 --vcd=" + Ref);
    ASSERT_EQ(Whole.Exit, 82) << E << ": " << Whole.Err;
    EXPECT_FALSE(slurp(Ref).empty());
    EXPECT_EQ(slurp(Part), slurp(Ref)) << E;
  }
}

// --batch reports through the same code as a plain run: the oscillation
// diagnostics name the cycle and the lint hint appears once.
TEST_F(LlhdSimTest, BatchReportsOscillationLikePlainRun) {
  for (const char *Extra : {"", " --batch=1"}) {
    SimResult R = sim(Examples + "osc.llhd --until=10ns" + Extra);
    EXPECT_EQ(R.Exit, 83) << Extra;
    EXPECT_NE(R.Err.find("osc_top/osc"), std::string::npos) << R.Err;
    EXPECT_NE(R.Err.find("osc_top/x"), std::string::npos) << R.Err;
    EXPECT_EQ(count(R.Err, "check 'comb-loop'"), 1u) << R.Err;
  }
}

TEST_F(LlhdSimTest, BatchReportsCheckpointWriteFailure) {
  SimResult R = sim(Examples + "counter.llhd --until=1us --max-deltas=10 "
                               "--batch=2 --checkpoint=" +
                    path("no/dir/img"));
  EXPECT_EQ(R.Exit, 84) << R.Err;
  EXPECT_NE(R.Err.find("cannot write checkpoint"), std::string::npos)
      << R.Err;
}

TEST_F(LlhdSimTest, BatchStatsPrintJitLine) {
  SimResult R =
      sim(Examples + "acc_tb.llhd --engine=blaze --batch=2 --jobs=1 --stats");
  ASSERT_EQ(R.Exit, 0) << R.Err;
  EXPECT_TRUE(std::regex_search(
      R.Err, std::regex("blaze jit: .* [1-9][0-9]* native / ")))
      << R.Err;
  EXPECT_EQ(digests(R.Err).size(), 2u) << R.Err;
}

// An unknown engine is a usage error found while parsing the arguments,
// before the input is read or any inspection mode runs.
TEST_F(LlhdSimTest, UnknownEngineIsUsageError) {
  std::string Bad = write("bad.llhd", "garbage\n");
  EXPECT_EQ(sim(Bad + " --engine=bogus").Exit, 64);
  EXPECT_EQ(sim(Examples + "counter.llhd --engine=bogus --list-signals").Exit,
            64);
  EXPECT_EQ(sim(Examples + "counter.llhd --engine=bogus --dump-lir").Exit,
            64);
  EXPECT_EQ(sim(Examples + "counter.llhd --engine=bogus --batch=2").Exit, 64);
  // The closure engine's old name is rejected like any unknown name.
  const std::string Flag = std::string("--engine=") + "comm";
  SimResult Old = sim(Examples + "counter.llhd " + Flag);
  EXPECT_EQ(Old.Exit, 64);
  EXPECT_NE(Old.Err.find("invalid value in '" + Flag + "'"),
            std::string::npos)
      << Old.Err;
}

// Numeric options take whole numbers only: no sign (strtoull would wrap
// "-1" to a huge budget), no exponent, nothing trailing, no overflow.
TEST_F(LlhdSimTest, MalformedNumbersAreUsageErrors) {
  const std::string Counter = Examples + "counter.llhd --until=10ns ";
  for (const char *Bad : {"--max-deltas=-1", "--max-events=1e6",
                          "--max-deltas=", "--seed=-3", "--jobs=2x",
                          "--batch=99999999999"})
    EXPECT_EQ(sim(Counter + Bad).Exit, 64) << Bad;
  EXPECT_EQ(sim(Counter + "--seed=0x10").Exit, 0);
}

} // namespace
