//===- tests/jit/JitTest.cpp - Blaze native codegen tests -----------------===//
//
// The Blaze JIT (src/jit/): native code must be byte-for-byte
// trace-equivalent with the reference interpreter across the whole
// designs suite, at integer width boundaries through the generated
// code, and in mixed native/deopt designs. The generated code must
// compile without a single warning under the shipped flags, also from
// a temp dir whose path needs shell quoting. The fallback paths — no
// host compiler, failing compiler, unwritable temp dir — must degrade
// to the interpreter without breaking a single simulation.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/HostCompiler.h"
#include "jit/Runtime.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"
#include "sim/Program.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

using namespace llhd;

namespace {

struct JitTest : public ::testing::Test {
  Context Ctx;

  Module *parseFresh(const std::string &Src, const std::string &Name) {
    auto *M = new Module(Ctx, Name); // Leaked into the test; fine.
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error;
    return M;
  }

  /// Interpreter trace digest for \p Src.
  uint64_t interpDigest(const std::string &Src, const char *Top) {
    Module *M = parseFresh(Src, std::string(Top) + ".ref");
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Ref(std::move(D));
    Ref.run();
    return Ref.trace().digest();
  }

  /// Runs \p Src on Blaze with \p Mode and returns the simulator for
  /// digest/stats inspection.
  std::unique_ptr<BlazeSim> runBlaze(const std::string &Src,
                                     const char *Top,
                                     jit::JitOptions::Mode Mode) {
    Module *M = parseFresh(Src, std::string(Top) + ".blz");
    BlazeSim::BlazeOptions O;
    O.Jit.M = Mode;
    auto B = std::make_unique<BlazeSim>(*M, Top, O);
    EXPECT_TRUE(B->valid()) << B->error();
    B->run();
    return B;
  }
};

/// A two-process design parameterised on integer width: a stimulus
/// process counting in an iW var, and a combinational process running
/// xor/add through width-W lanes. \p Salt makes the generated source
/// unique so fallback tests cannot hit the host compiler's
/// source-hash object cache.
std::string widthDesign(unsigned W, unsigned Salt = 0) {
  std::string Wi = "i" + std::to_string(W);
  std::string Src;
  Src += "entity @wtop () -> () {\n";
  Src += "  %z = const " + Wi + " 0\n";
  Src += "  %a = sig " + Wi + "$ %z\n";
  Src += "  %o = sig " + Wi + "$ %z\n";
  Src += "  inst @wstim () -> (" + Wi + "$ %a)\n";
  Src += "  inst @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o)\n";
  Src += "}\n";
  Src += "proc @wstim () -> (" + Wi + "$ %a) {\n";
  Src += "entry:\n";
  Src += "  %c0 = const i32 0\n";
  Src += "  %c1 = const i32 1\n";
  Src += "  %lim = const i32 " + std::to_string(9 + Salt) + "\n";
  Src += "  %zw = const " + Wi + " 0\n";
  Src += "  %onew = const " + Wi + " 1\n";
  Src += "  %t1 = const time 1ns\n";
  Src += "  %i = var i32 %c0\n";
  Src += "  %vw = var " + Wi + " %zw\n";
  Src += "  br %loop\n";
  Src += "loop:\n";
  Src += "  %av = ld " + Wi + "* %vw\n";
  Src += "  %nv = add " + Wi + " %av, %onew\n";
  Src += "  st " + Wi + "* %vw, %nv\n";
  Src += "  drv " + Wi + "$ %a, %nv after %t1\n";
  Src += "  wait %next for %t1\n";
  Src += "next:\n";
  Src += "  %ip = ld i32* %i\n";
  Src += "  %in = add i32 %ip, %c1\n";
  Src += "  st i32* %i, %in\n";
  Src += "  %cont = ult i32 %in, %lim\n";
  Src += "  br %cont, %end, %loop\n";
  Src += "end:\n";
  Src += "  halt\n";
  Src += "}\n";
  Src += "proc @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o) {\n";
  Src += "entry:\n";
  Src += "  %av = prb " + Wi + "$ %a\n";
  Src += "  %one = const " + Wi + " 1\n";
  Src += "  %x = xor " + Wi + " %av, %one\n";
  Src += "  %s = add " + Wi + " %x, %one\n";
  Src += "  %t0 = const time 0s\n";
  Src += "  drv " + Wi + "$ %o, %s after %t0\n";
  Src += "  wait %entry for %a\n";
  Src += "}\n";
  return Src;
}

//===----------------------------------------------------------------------===//
// Equivalence
//===----------------------------------------------------------------------===//

// The whole Table 2 suite, Blaze native code vs the reference
// interpreter, byte-for-byte — and the JIT must actually engage.
TEST_F(JitTest, SuiteDigestsMatchNative) {
  unsigned TotalNative = 0;
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);

    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    SimStats S1 = Ref.run();

    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    SimStats S2 = Blaze.run();

    EXPECT_EQ(S1.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(S2.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_TRUE(Blaze.jitStats().Warning.empty())
        << D.Key << ": " << Blaze.jitStats().Warning;
    TotalNative += Blaze.jitStats().NativeUnits;
  }
  // The sweep is pointless if nothing actually ran as native code.
  EXPECT_GT(TotalNative, 0u);
}

// Width boundaries through the generated lane code: 1/63/64 run
// native, 65/128 deopt to the interpreter; every width matches the
// oracle either way.
TEST_F(JitTest, WidthBoundaries) {
  for (unsigned W : {1u, 63u, 64u, 65u, 128u}) {
    std::string Src = widthDesign(W);
    uint64_t Ref = interpDigest(Src, "wtop");
    auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
    EXPECT_EQ(Ref, B->trace().digest()) << "width " << W;
    const jit::JitStats &St = B->jitStats();
    if (W <= 64) {
      EXPECT_EQ(St.NativeUnits, 2u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 0u) << "width " << W;
    } else {
      EXPECT_EQ(St.NativeUnits, 0u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 2u) << "width " << W;
    }
    // And the ablation configuration stays equivalent too.
    auto BOff = runBlaze(Src, "wtop", jit::JitOptions::Mode::Off);
    EXPECT_EQ(Ref, BOff->trace().digest()) << "width " << W;
    EXPECT_FALSE(BOff->jitStats().Enabled);
  }
}

// The accumulator testbench mixes a native-eligible datapath with a
// process that calls a real function (forced deopt): native and
// interpreted instances must coexist and still match the oracle.
TEST_F(JitTest, MixedNativeAndInterpretedMatchesOracle) {
  std::string Src = llhd_test::accTestbench("50");
  uint64_t Ref = interpDigest(Src, "acc_tb");
  auto B = runBlaze(Src, "acc_tb", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_GE(St.NativeUnits, 1u);
  EXPECT_GE(St.DeoptUnits, 1u);
  EXPECT_GE(St.NativeProcs, 1u);
  EXPECT_GE(St.InterpProcs, 1u);
}

//===----------------------------------------------------------------------===//
// Fallback robustness
//===----------------------------------------------------------------------===//

struct EnvGuard {
  std::string Name;
  EnvGuard(const char *N, const char *Value) : Name(N) {
    setenv(N, Value, /*overwrite=*/1);
  }
  ~EnvGuard() { unsetenv(Name.c_str()); }
};

// LLHD_JIT_CXX="" simulates a machine without any host compiler: the
// engine must interpret everything, correctly, with the stats saying
// why. Salted sources keep the compiler's object cache out of play.
TEST_F(JitTest, NoHostCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "");
  // Every suite design still runs, and matches the oracle.
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    Ref.run();
    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    Blaze.run();
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().CompilerFound) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().Compiled) << D.Key;
    EXPECT_EQ(Blaze.jitStats().NativeProcs, 0u) << D.Key;
  }
}

// A compiler that exists but always fails: the warning must carry the
// failing command so the user can reproduce it, and the simulation
// must still be correct.
TEST_F(JitTest, FailingCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "/bin/false");
  std::string Src = widthDesign(16, /*Salt=*/101);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_TRUE(St.CompilerFound);
  EXPECT_FALSE(St.Compiled);
  EXPECT_EQ(St.NativeProcs, 0u);
  EXPECT_NE(St.Warning.find("/bin/false"), std::string::npos)
      << "warning should carry the failing command: " << St.Warning;
}

// An unusable temp dir root: the compile step fails gracefully and the
// engine interprets.
TEST_F(JitTest, UnwritableTempDirFallsBack) {
  EnvGuard G("LLHD_JIT_TMPDIR", "/nonexistent/llhd-jit-tmp");
  std::string Src = widthDesign(24, /*Salt=*/202);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  EXPECT_FALSE(B->jitStats().Compiled);
  EXPECT_EQ(B->jitStats().NativeProcs, 0u);
  EXPECT_FALSE(B->jitStats().Warning.empty());
}

//===----------------------------------------------------------------------===//
// The host compile itself
//===----------------------------------------------------------------------===//

// Every suite design's translation unit compiles warning-free under the
// shipped flags: the compiler's output is empty on success. A trailing
// comment makes each source new to the object cache, and an empty
// $LLHD_JIT_CACHE keeps the on-disk cache out, so each one really runs
// the compiler.
TEST_F(JitTest, GeneratedCodeCompilesWithoutWarnings) {
  EnvGuard G("LLHD_JIT_CACHE", "");
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M(C, D.Key);
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    std::string Err;
    auto Prog = BlazeSim::buildProgram(M, R.TopUnit, {}, Err);
    ASSERT_TRUE(Prog) << D.Key << ": " << Err;
    ASSERT_TRUE(Prog->JitMod) << D.Key;
    jit::CompileResult CR = jit::HostCompiler::compile(
        Prog->JitMod->Source + "// diagnostics probe\n");
    ASSERT_TRUE(CR.ok()) << D.Key << ": " << CR.Error;
    EXPECT_EQ(CR.From, jit::ObjectSource::Compiled) << D.Key;
    EXPECT_EQ(CR.Diagnostics, "") << D.Key << ": " << CR.Command;
  }
}

// The compiler is spawned without a shell, so a temp dir that needs
// quoting (a space and a single quote) still compiles natively. The
// stats record where the object came from: compiled the first time,
// this process's object cache the second.
TEST_F(JitTest, QuotedTempDirCompiles) {
  const char *Tmp = getenv("TMPDIR");
  std::string Templ =
      std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/llhd jit's dir-XXXXXX";
  std::vector<char> Dir(Templ.begin(), Templ.end());
  Dir.push_back('\0');
  ASSERT_NE(mkdtemp(Dir.data()), nullptr) << Templ;
  {
    EnvGuard G("LLHD_JIT_TMPDIR", Dir.data());
    std::string Src = widthDesign(32, /*Salt=*/303);
    uint64_t Ref = interpDigest(Src, "wtop");
    for (jit::ObjectSource Want :
         {jit::ObjectSource::Compiled, jit::ObjectSource::Memory}) {
      auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
      const jit::JitStats &St = B->jitStats();
      EXPECT_EQ(Ref, B->trace().digest());
      EXPECT_TRUE(St.Compiled) << St.Warning;
      EXPECT_GT(St.NativeProcs, 0u);
      EXPECT_EQ(St.Object, Want);
    }
  }
  // The compile removed its own subdirectory; the root must be empty.
  EXPECT_EQ(rmdir(Dir.data()), 0) << Dir.data();
}

} // namespace
