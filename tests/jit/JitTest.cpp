//===- tests/jit/JitTest.cpp - Blaze native codegen tests -----------------===//
//
// The Blaze JIT (src/jit/): native code must be byte-for-byte
// trace-equivalent with the reference interpreter across the whole
// designs suite, at integer width boundaries through the generated
// code, and in mixed native/deopt designs. The generated code must
// compile without a single warning under the shipped flags, also from
// a temp dir whose path needs shell quoting, carry no dead code, and
// run the same from an object compiled in shards as from one compiled
// as a single unit. The fallback paths — no host compiler, failing
// compiler or compiler shard, unwritable temp dir — must degrade to the
// interpreter without breaking a single simulation or leaving a child
// behind, and an object without the engine's ABI stamp must never be
// loaded.
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

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace llhd;

namespace {

struct JitTest : public ::testing::Test {
  Context Ctx;

  /// The modules parseFresh() made, destroyed with the fixture (after the
  /// simulators a test body holds, before Ctx).
  std::vector<std::unique_ptr<Module>> Modules;

  Module *parseFresh(const std::string &Src, const std::string &Name) {
    Modules.push_back(std::make_unique<Module>(Ctx, Name));
    Module *M = Modules.back().get();
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error;
    return M;
  }

  /// Interpreter trace digest for \p Src; its run statistics land in
  /// \p Stats when given.
  uint64_t interpDigest(const std::string &Src, const char *Top,
                        SimStats *Stats = nullptr) {
    Module *M = parseFresh(Src, std::string(Top) + ".ref");
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Ref(std::move(D));
    SimStats S = Ref.run();
    if (Stats)
      *Stats = S;
    return Ref.trace().digest();
  }

  /// Runs \p Src on Blaze with \p Mode (refusing native code to the
  /// units \p ForceDeopt names) and returns the simulator for
  /// digest/stats inspection; its run statistics land in \p Stats when
  /// given.
  std::unique_ptr<BlazeSim> runBlaze(const std::string &Src,
                                     const char *Top,
                                     jit::JitOptions::Mode Mode,
                                     const std::string &ForceDeopt = "",
                                     SimStats *Stats = nullptr) {
    Module *M = parseFresh(Src, std::string(Top) + ".blz");
    BlazeSim::BlazeOptions O;
    O.Jit.M = Mode;
    O.Jit.ForceDeopt = ForceDeopt;
    auto B = std::make_unique<BlazeSim>(*M, Top, O);
    EXPECT_TRUE(B->valid()) << B->error();
    SimStats S = B->run();
    if (Stats)
      *Stats = S;
    return B;
  }

  /// The deopt reason Blaze recorded for the unit named \p Unit, or "".
  static std::string deoptReason(const jit::JitStats &St,
                                 const std::string &Unit) {
    for (const auto &[Name, Reason] : St.Deopts)
      if (Name == Unit)
        return Reason;
    return "";
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

/// CPUs this process may run on: the most shards a compile splits into.
unsigned usableCpus() {
  cpu_set_t Set;
  return sched_getaffinity(0, sizeof(Set), &Set) == 0
             ? std::max(CPU_COUNT(&Set), 1)
             : 1u;
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
    // Every process of the suite runs as native code, LZC's
    // function-calling testbench included.
    EXPECT_EQ(Blaze.jitStats().DeoptUnits, 0u) << D.Key;
    EXPECT_EQ(Blaze.jitStats().InterpProcs, 0u) << D.Key;
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

// The accumulator testbench with its stimulus process refused native
// code: native and interpreted instances must coexist and still match
// the oracle.
TEST_F(JitTest, MixedNativeAndInterpretedMatchesOracle) {
  std::string Src = llhd_test::accTestbench("50");
  uint64_t Ref = interpDigest(Src, "acc_tb");
  auto B = runBlaze(Src, "acc_tb", jit::JitOptions::Mode::On,
                    /*ForceDeopt=*/"acc_tb_initial");
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_GE(St.NativeUnits, 1u);
  EXPECT_GE(St.DeoptUnits, 1u);
  EXPECT_GE(St.NativeProcs, 1u);
  EXPECT_GE(St.InterpProcs, 1u);
}

//===----------------------------------------------------------------------===//
// Function calls
//===----------------------------------------------------------------------===//

/// A process driving @fsum(i) for i in [0, 12): @fsum loops over a var
/// counter and calls @fsq per step.
const char *FnLoopSrc = R"(
entity @ftop () -> () {
  %z = const i32 0
  %o = sig i32 %z
  inst @fdrive () -> (i32$ %o)
}
proc @fdrive () -> (i32$ %o) {
entry:
  %c0 = const i32 0
  %c1 = const i32 1
  %lim = const i32 12
  %t1 = const time 1ns
  %i = var i32 %c0
  br %loop
loop:
  %ip = ld i32* %i
  %r = call i32 @fsum (i32 %ip)
  drv i32$ %o, %r after %t1
  wait %next for %t1
next:
  %in = add i32 %ip, %c1
  st i32* %i, %in
  %cont = ult i32 %in, %lim
  br %cont, %end, %loop
end:
  halt
}
func @fsum (i32 %n) i32 {
entry:
  %z = const i32 0
  %one = const i32 1
  %acc = var i32 %z
  %k = var i32 %z
  br %check
check:
  %kv = ld i32* %k
  %more = ult i32 %kv, %n
  br %more, %done, %body
body:
  %sq = call i32 @fsq (i32 %kv)
  %av = ld i32* %acc
  %an = add i32 %av, %sq
  st i32* %acc, %an
  %kn = add i32 %kv, %one
  st i32* %k, %kn
  br %check
done:
  %res = ld i32* %acc
  ret i32 %res
}
func @fsq (i32 %x) i32 {
entry:
  %y = mul i32 %x, %x
  ret i32 %y
}
)";

// A callee with a loop, a var and a nested call runs as native code,
// and every value it returns matches the oracle.
TEST_F(JitTest, FunctionWithLoopVarAndNestedCallRunsNatively) {
  uint64_t Ref = interpDigest(FnLoopSrc, "ftop");
  auto B = runBlaze(FnLoopSrc, "ftop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_TRUE(St.Compiled) << St.Warning;
  EXPECT_EQ(St.NativeUnits, 1u);
  EXPECT_EQ(St.DeoptUnits, 0u) << deoptReason(St, "fdrive");
  EXPECT_EQ(St.InterpProcs, 0u);
  // Both callees became static functions in front of the process's.
  const std::string &Src = B->jitSource();
  EXPECT_NE(Src.find("// @fsq (function)"), std::string::npos) << Src;
  EXPECT_NE(Src.find("// @fsum (function)"), std::string::npos) << Src;
  EXPECT_LT(Src.find("// @fsq (function)"), Src.find("// @fsum (function)"));
}

// An llhd.assert inside a callee counts its failures exactly like the
// interpreter's. The process's own intrinsic site (llhd.finish) comes
// first in its Calls table, so a callee site numbered from 0 would
// finish the run at the first call.
TEST_F(JitTest, AssertInCalleeCountsLikeInterp) {
  const char *Src = R"(
entity @atop () -> () {
  %z = const i32 0
  %o = sig i32 %z
  inst @adrive () -> (i32$ %o)
}
proc @adrive () -> (i32$ %o) {
entry:
  %c0 = const i32 0
  %c1 = const i32 1
  %lim = const i32 8
  %t1 = const time 1ns
  %i = var i32 %c0
  br %loop
loop:
  %ip = ld i32* %i
  call void @acheck (i32 %ip)
  drv i32$ %o, %ip after %t1
  wait %next for %t1
next:
  %in = add i32 %ip, %c1
  st i32* %i, %in
  %cont = ult i32 %in, %lim
  br %cont, %end, %loop
end:
  call void @llhd.finish ()
  halt
}
func @acheck (i32 %v) void {
entry:
  %five = const i32 5
  %ok = ult i32 %v, %five
  call void @llhd.assert (i1 %ok)
  ret
}
)";
  SimStats RefSt, NatSt;
  uint64_t Ref = interpDigest(Src, "atop", &RefSt);
  auto B = runBlaze(Src, "atop", jit::JitOptions::Mode::On, "", &NatSt);
  EXPECT_EQ(Ref, B->trace().digest());
  EXPECT_EQ(RefSt.AssertFailures, 3u); // v = 5, 6, 7.
  EXPECT_EQ(NatSt.AssertFailures, RefSt.AssertFailures);
  EXPECT_TRUE(RefSt.Finished);
  EXPECT_EQ(NatSt.EndTime, RefSt.EndTime);
  const jit::JitStats &St = B->jitStats();
  EXPECT_EQ(St.DeoptUnits, 0u) << deoptReason(St, "adrive");
  EXPECT_EQ(St.NativeProcs, 1u);
}

// A recursive callee stays on the interpreter, with the reason named.
TEST_F(JitTest, RecursiveCalleeDeopts) {
  const char *Src = R"(
entity @rtop () -> () {
  %z = const i32 0
  %o = sig i32 %z
  inst @rdrive () -> (i32$ %o)
}
proc @rdrive () -> (i32$ %o) {
entry:
  %n = const i32 6
  %t1 = const time 1ns
  %r = call i32 @fact (i32 %n)
  drv i32$ %o, %r after %t1
  halt
}
func @fact (i32 %n) i32 {
entry:
  %one = const i32 1
  %le = ule i32 %n, %one
  br %le, %rec, %base
base:
  ret i32 %one
rec:
  %m = sub i32 %n, %one
  %f = call i32 @fact (i32 %m)
  %r = mul i32 %n, %f
  ret i32 %r
}
)";
  uint64_t Ref = interpDigest(Src, "rtop");
  auto B = runBlaze(Src, "rtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_EQ(St.DeoptUnits, 1u);
  EXPECT_EQ(St.InterpProcs, 1u);
  EXPECT_NE(deoptReason(St, "rdrive").find("recursive call to function "
                                           "'@fact'"),
            std::string::npos)
      << deoptReason(St, "rdrive");
}

// A callee taking an array stays on the interpreter, with the reason
// named.
TEST_F(JitTest, ArrayArgumentCalleeDeopts) {
  const char *Src = R"(
entity @xtop () -> () {
  %z = const i8 0
  %o = sig i8 %z
  inst @xdrive () -> (i8$ %o)
}
proc @xdrive () -> (i8$ %o) {
entry:
  %a = const i8 3
  %b = const i8 5
  %v = [i8 %a, %b]
  %t1 = const time 1ns
  %r = call i8 @xsum ([2 x i8] %v)
  drv i8$ %o, %r after %t1
  halt
}
func @xsum ([2 x i8] %v) i8 {
entry:
  %e0 = extf i8 %v, 0
  %e1 = extf i8 %v, 1
  %s = add i8 %e0, %e1
  ret i8 %s
}
)";
  uint64_t Ref = interpDigest(Src, "xtop");
  auto B = runBlaze(Src, "xtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_EQ(St.DeoptUnits, 1u);
  EXPECT_NE(deoptReason(St, "xdrive").find("call to function '@xsum' with "
                                           "an argument outside"),
            std::string::npos)
      << deoptReason(St, "xdrive");
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

/// A fresh directory under $TMPDIR (or /tmp); \p Name ends in XXXXXX.
std::string freshTempDir(const std::string &Name) {
  const char *Tmp = getenv("TMPDIR");
  std::string Templ = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/" + Name;
  std::vector<char> Dir(Templ.begin(), Templ.end());
  Dir.push_back('\0');
  EXPECT_NE(mkdtemp(Dir.data()), nullptr) << Templ;
  return Dir.data();
}

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

// A compiler that builds shard 0 but refuses every other shard (and the
// single command, so a one-CPU run still fails): the engine warns and
// interprets, the warning names the refused command and carries every
// shard's output, no compiler child outlives the compile, and the temp
// dir is left empty.
TEST_F(JitTest, FailingShardFallsBack) {
  std::string Real = jit::HostCompiler::findCompiler();
  ASSERT_FALSE(Real.empty());
  std::filesystem::path Root = freshTempDir("llhd-jit-shard-XXXXXX");
  std::string Tmp = Root / "tmp", Cxx = Root / "cxx";
  std::filesystem::create_directory(Tmp);
  {
    std::ofstream Out(Cxx);
    Out << "#!/bin/sh\n"
           "case \"$*\" in *jit.0.cpp*) exec '" << Real << "' \"$@\" ;; esac\n"
           "echo \"refusing to compile: $*\" >&2\n"
           "exit 3\n";
  }
  ASSERT_EQ(chmod(Cxx.c_str(), 0755), 0);

  EnvGuard C("LLHD_JIT_CXX", Cxx.c_str()), T("LLHD_JIT_TMPDIR", Tmp.c_str());
  std::string Src = widthDesign(40, /*Salt=*/404);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_TRUE(St.CompilerFound);
  EXPECT_FALSE(St.Compiled);
  EXPECT_EQ(St.NativeProcs, 0u);
  EXPECT_EQ(St.Shards, std::min(2u, usableCpus()));
  EXPECT_NE(St.Warning.find("exit status 3): " + Cxx), std::string::npos)
      << St.Warning;
  EXPECT_NE(St.Warning.find("refusing to compile"), std::string::npos)
      << St.Warning;

  int Status = 0;
  errno = 0;
  EXPECT_EQ(waitpid(-1, &Status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  EXPECT_EQ(rmdir(Tmp.c_str()), 0) << "temp dir not empty: " << Tmp;
  std::filesystem::remove_all(Root);
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

/// \p Src without its unit sentinels: it compiles as one unit.
std::string stripSentinels(std::string Src) {
  const std::string Line = jit::UnitSentinel;
  for (size_t Pos; (Pos = Src.find(Line)) != std::string::npos;)
    Src.erase(Pos, Line.size());
  return Src;
}

// Every suite design runs to the same digest from its object compiled
// in shards as from the same source compiled as one unit. A trailing
// comment makes both sources new to the object cache.
TEST_F(JitTest, ShardedObjectMatchesOneShard) {
  EnvGuard G("LLHD_JIT_CACHE", "");
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M(C, D.Key);
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    std::string Err;
    auto Prog = BlazeSim::buildProgram(M, R.TopUnit, {}, Err);
    ASSERT_TRUE(Prog && Prog->JitMod) << D.Key << ": " << Err;
    jit::JitModule &JM = *Prog->JitMod;
    std::string Src = JM.Source + "// shard probe\n";
    jit::CompileResult Sharded = jit::HostCompiler::compile(Src);
    jit::CompileResult One = jit::HostCompiler::compile(stripSentinels(Src));
    ASSERT_TRUE(Sharded.ok()) << D.Key << ": " << Sharded.Error;
    ASSERT_TRUE(One.ok()) << D.Key << ": " << One.Error;
    EXPECT_EQ(Sharded.Shards, std::min(JM.St.NativeUnits, usableCpus()))
        << D.Key;
    EXPECT_EQ(One.Shards, 1u) << D.Key;

    uint64_t Digest[2];
    for (int I : {0, 1}) {
      ASSERT_TRUE(JM.bindObject(I ? One.Handle : Sharded.Handle)) << D.Key;
      BlazeSim B(Prog, {});
      B.run();
      EXPECT_GT(B.jitStats().NativeProcs, 0u) << D.Key;
      Digest[I] = B.trace().digest();
    }
    EXPECT_EQ(Digest[0], Digest[1]) << D.Key;
  }
}

// The emitter's output holds no dead code: a function declares the
// runaway-guard fuel only when it spends it on a backward jump, and no
// return follows a body that already ends in a return or a goto. Every
// process unit opens with one sentinel.
TEST_F(JitTest, GeneratedCodeHasNoDeadFuelOrTails) {
  const std::regex DeadTail("(return [^;]*|goto L[0-9]+);\n  return "
                            "(-1|0);\n\\}\n");
  const std::regex Header("\n(extern \"C\" s64|static u64) llhd_jit_u");
  unsigned WithFuel = 0, WithoutFuel = 0;
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M(C, D.Key);
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim B(M, R.TopUnit, O);
    ASSERT_TRUE(B.valid()) << B.error();
    const std::string &Src = B.jitSource();
    ASSERT_FALSE(Src.empty()) << D.Key;
    EXPECT_FALSE(std::regex_search(Src, DeadTail)) << D.Key;

    size_t Sentinels = 0;
    for (size_t Pos = Src.find(jit::UnitSentinel); Pos != std::string::npos;
         Pos = Src.find(jit::UnitSentinel, Pos + 1))
      ++Sentinels;
    EXPECT_EQ(Sentinels, B.jitStats().NativeUnits) << D.Key;

    for (std::sregex_iterator It(Src.begin(), Src.end(), Header), End;
         It != End; ++It) {
      size_t Open = It->position();
      std::string Fn = Src.substr(Open, Src.find("\n}\n", Open) - Open);
      bool Declares = Fn.find("u64 fuel = ") != std::string::npos;
      EXPECT_EQ(Declares, Fn.find("--fuel") != std::string::npos)
          << D.Key << ":" << Fn.substr(0, Fn.find('{'));
      ++(Declares ? WithFuel : WithoutFuel);
    }
  }
  // Both kinds occur: loops in testbenches, straight-line logic.
  EXPECT_GT(WithFuel, 0u);
  EXPECT_GT(WithoutFuel, 0u);
}

// The compiler is spawned without a shell, so a temp dir that needs
// quoting (a space and a single quote) still compiles natively. The
// stats record where the object came from: compiled the first time,
// this process's object cache the second.
TEST_F(JitTest, QuotedTempDirCompiles) {
  std::string Dir = freshTempDir("llhd jit's dir-XXXXXX");
  {
    EnvGuard G("LLHD_JIT_TMPDIR", Dir.c_str());
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
  EXPECT_EQ(rmdir(Dir.c_str()), 0) << Dir;
}

//===----------------------------------------------------------------------===//
// The ABI stamp
//===----------------------------------------------------------------------===//

namespace fs = std::filesystem;

/// The prelude's types and helpers followed by \p Stamp, which replaces
/// the prelude's own llhd_jit_abi_version definition.
std::string stampedSource(const std::string &Stamp) {
  return "#define LLHD_JIT_ENGINE\n" + jit::emitPrelude() + Stamp;
}

const char *const WrongStamp =
    "extern \"C\" { int llhd_jit_abi_version = 2; }\n";

std::string readBytes(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

TEST_F(JitTest, WrongAbiVersionIsRejected) {
  EnvGuard G("LLHD_JIT_CACHE", "");
  jit::CompileResult R = jit::HostCompiler::compile(stampedSource(WrongStamp));
  ASSERT_TRUE(R.CompilerFound);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("ABI version 2"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("expects " + std::to_string(jit::AbiVersion)),
            std::string::npos)
      << R.Error;
}

// A source without the stamp is rejected, whole or split: only shard 0
// may carry the stamp, and here none does.
TEST_F(JitTest, MissingAbiStampIsRejected) {
  EnvGuard G("LLHD_JIT_CACHE", "");
  std::string Split = stampedSource("");
  for (const char *Fn : {"a", "b"})
    Split += std::string(jit::UnitSentinel) + "extern \"C\" int llhd_probe_" +
             Fn + "() { return 1; }\n";
  for (const std::string &Src : {stampedSource(""), Split}) {
    jit::CompileResult R = jit::HostCompiler::compile(Src);
    ASSERT_TRUE(R.CompilerFound);
    EXPECT_EQ(R.Shards, Src == Split ? std::min(2u, usableCpus()) : 1u);
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("<missing>"), std::string::npos) << R.Error;
  }
}

// An object of another ABI planted under the published cache name of a
// source is not loaded: the compile falls through to a fresh compile and
// republishes a matching object in its place.
TEST_F(JitTest, MismatchedCachedObjectIsNotLoaded) {
  fs::path Root = freshTempDir("llhd-jit-abi-XXXXXX");
  fs::path Kept = Root / "kept", Cache = Root / "cache";
  fs::create_directory(Kept);

  // A mismatched object: the failed load leaves it behind with KEEP set.
  {
    EnvGuard K("LLHD_JIT_KEEP", "1"), T("LLHD_JIT_TMPDIR", Kept.c_str()),
        C("LLHD_JIT_CACHE", "");
    ASSERT_FALSE(jit::HostCompiler::compile(stampedSource(WrongStamp)).ok());
  }
  fs::path Planted = fs::directory_iterator(Kept)->path() / "jit.so";
  ASSERT_TRUE(fs::exists(Planted));

  // The published name of Src. A child process compiles it, so this
  // process's in-memory object cache does not know Src yet.
  std::string Src = jit::emitPrelude() + "// planted cache entry\n";
  EnvGuard C("LLHD_JIT_CACHE", Cache.c_str());
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0)
    _exit(jit::HostCompiler::compile(Src).From == jit::ObjectSource::Compiled
              ? 0
              : 1);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  fs::path Published = fs::directory_iterator(Cache)->path();
  EXPECT_NE(Published.filename().string().find(
                "-abi" + std::to_string(jit::AbiVersion) + ".so"),
            std::string::npos)
      << Published;
  fs::copy_file(Planted, Published, fs::copy_options::overwrite_existing);

  jit::CompileResult R = jit::HostCompiler::compile(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.From, jit::ObjectSource::Compiled);
  EXPECT_TRUE(readBytes(Published) != readBytes(Planted))
      << "the planted object was not replaced";
  fs::remove_all(Root);
}

} // namespace
