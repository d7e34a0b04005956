//===- tests/sim/LirTest.cpp - Lowered runtime IR tests -------------------===//
//
// The shared lowering layer: golden LIR dumps for representative units,
// the process classifier (StableWait), and
// cross-engine equivalence on the features the layer carries — element-
// aligned `con` of sub-signals, array slices of signals and word arrays,
// on Blaze both interpreted and native — plus a whole-suite
// lowering/classification sweep.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"
#include "sim/Lir.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace llhd;

namespace {

struct LirTest : public ::testing::Test {
  Context Ctx;
  /// JIT statistics of runAllEngines' native Blaze run.
  jit::JitStats LastJit;
  /// Run statistics of runAllEngines' runs, by engine: "interp", "blaze"
  /// (the JIT off) and "jit".
  std::map<std::string, SimStats> RunStats;

  /// The modules parseFresh() made, destroyed with the fixture (after the
  /// simulators a test body holds, before Ctx).
  std::vector<std::unique_ptr<Module>> Modules;

  Module *parseFresh(const char *Src, const char *Name) {
    Modules.push_back(std::make_unique<Module>(Ctx, Name));
    Module *M = Modules.back().get();
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error;
    return M;
  }

  LirUnit lowerNamed(Module &M, const char *Unit) {
    llhd::Unit *U = M.unitByName(Unit);
    EXPECT_NE(U, nullptr) << "@" << Unit << " not found";
    return lowerUnit(*U);
  }

  /// Runs \p Src on both engines — Blaze both interpreted and native,
  /// where its probes of aliased and sliced signals cross the JIT
  /// callbacks — and checks digest equality; returns the interpreter for
  /// state inspection.
  std::unique_ptr<InterpSim> runAllEngines(const char *Src,
                                           const char *Top) {
    Module *M1 = parseFresh(Src, std::string(Top) + ".ref");
    Design D1 = elaborate(*M1, Top);
    EXPECT_TRUE(D1.ok()) << D1.Error;
    auto Ref = std::make_unique<InterpSim>(std::move(D1));
    RunStats["interp"] = Ref->run();

    auto runBlaze = [&](jit::JitOptions::Mode Jit, const char *Name) {
      Module *M = parseFresh(Src, std::string(Top) + "." + Name);
      BlazeSim::BlazeOptions O;
      O.Jit.M = Jit;
      BlazeSim Blaze(*M, Top, O);
      EXPECT_TRUE(Blaze.valid()) << Blaze.error();
      RunStats[Name] = Blaze.run();
      EXPECT_EQ(Ref->trace().digest(), Blaze.trace().digest()) << Name;
      LastJit = Blaze.jitStats();
    };
    runBlaze(jit::JitOptions::Mode::Off, "blaze");
    runBlaze(jit::JitOptions::Mode::On, "jit");
    return Ref;
  }

  Module *parseFresh(const char *Src, const std::string &Name) {
    return parseFresh(Src, Name.c_str());
  }

  RtValue signalValue(const InterpSim &Sim, const std::string &Suffix) {
    const SignalTable &S = Sim.signals();
    for (SignalId I = 0; I != S.size(); ++I) {
      const std::string &N = S.name(I);
      if (N.size() >= Suffix.size() &&
          N.compare(N.size() - Suffix.size(), Suffix.size(), Suffix) ==
              0)
        return S.value(I);
    }
    return RtValue();
  }
};

//===----------------------------------------------------------------------===//
// Golden dumps
//===----------------------------------------------------------------------===//

const char *CombProcSrc = R"(
proc @comb (i8$ %a, i8$ %b) -> (i8$ %o) {
entry:
  %av = prb i8$ %a
  %bv = prb i8$ %b
  %sum = add i8 %av, %bv
  %t = const time 0s
  drv i8$ %o, %sum after %t
  wait %entry for %a, %b
}
)";

TEST_F(LirTest, GoldenDumpCombProcess) {
  Module *M = parseFresh(CombProcSrc, "m1");
  LirUnit L = lowerNamed(*M, "comb");
  EXPECT_EQ(L.dump(),
            "lir process @comb {\n"
            "  slots: 9 (values 9)  cells: 0  words: 3  regprev: 0  "
            "delprev: 0\n"
            "  sensitivity: stable\n"
            "  const [6] = 0s\n"
            "  0: prbw w[3], [0]\n"
            "  1: prbw w[4], [1]\n"
            "  2: purew add w[5], w[3], w[4]\n"
            "  3: drvw [2], w[5] after [6]\n"
            "  4: wait resume=@0 obs=([0], [1])\n"
            "}\n");
  EXPECT_TRUE(L.StableWait);
}

TEST_F(LirTest, GoldenDumpEntityWithReg) {
  const char *Src = R"(
entity @ff (i1$ %clk, i8$ %d) -> (i8$ %q) {
  %clkp = prb i1$ %clk
  %dp = prb i8$ %d
  reg i8$ %q, %dp rise %clkp
}
)";
  Module *M = parseFresh(Src, "m2");
  LirUnit L = lowerNamed(*M, "ff");
  EXPECT_EQ(L.dump(),
            "lir entity @ff {\n"
            "  slots: 6 (values 6)  cells: 0  words: 2  regprev: 1  "
            "delprev: 0\n"
            "  0: prbw w[3], [0]\n"
            "  1: prbw w[4], [1]\n"
            "  2: reg [2] base=0 {rise w[4] on w[3]}\n"
            "}\n");
  EXPECT_EQ(L.NumRegPrev, 1u);
}

//===----------------------------------------------------------------------===//
// Classifier
//===----------------------------------------------------------------------===//

TEST_F(LirTest, ClassifiesClockedProcessAsStable) {
  // The Figure 5 flip-flop shape: one static wait on the clock, edge
  // detection and a conditional store after resumption.
  Module *M = parseFresh(llhd_test::accTestbench("10"), "m3");
  LirUnit L = lowerNamed(*M, "acc_ff");
  EXPECT_TRUE(L.StableWait);

  // The branching combinational process is single-wait too (the wait
  // sits behind control flow).
  LirUnit LC = lowerNamed(*M, "acc_comb");
  EXPECT_TRUE(LC.StableWait);
}

TEST_F(LirTest, ClassifiesTimedTestbenchAsDynamic) {
  // The testbench waits with a timeout: timers force re-registration.
  Module *M = parseFresh(llhd_test::accTestbench("10"), "m4");
  LirUnit L = lowerNamed(*M, "acc_tb_initial");
  EXPECT_FALSE(L.StableWait);
}

TEST_F(LirTest, ClassifiesMooreAssignAsStable) {
  const char *Src = R"(
module m (input logic a, input logic b, output logic c);
  assign c = a ^ b;
endmodule

module m_tb;
  logic a, b;
  logic c;
  m dut (.a(a), .b(b), .c(c));
  initial begin
    a = 1; b = 0;
    #1ns;
    assert(c == 1);
    $finish;
  end
endmodule
)";
  Module M(Ctx, "sv");
  moore::CompileResult R = moore::compileSystemVerilog(Src, "m_tb", M);
  ASSERT_TRUE(R.Ok) << R.Error;
  Design D = elaborate(M, R.TopUnit);
  ASSERT_TRUE(D.ok()) << D.Error;
  unsigned Stable = 0, Dynamic = 0;
  for (const UnitInstance &UI : D.Instances) {
    if (!UI.U->isProcess())
      continue;
    LirUnit L = lowerUnit(*UI.U);
    ++(L.StableWait ? Stable : Dynamic);
  }
  EXPECT_GE(Stable, 1u) << "the assign process waits on its inputs only";
  EXPECT_GE(Dynamic, 1u) << "the timed initial block stays dynamic";
}

// Every unit of the Table 2 suite lowers, classifies, and dumps; a
// stable-wait process has exactly one wait, and no timeout on it.
TEST_F(LirTest, DesignsSuiteLowersAndClassifies) {
  for (const designs::DesignInfo &Dsg : designs::allDesigns(0.0)) {
    Context DCtx;
    Module M(DCtx, Dsg.Key);
    moore::CompileResult R =
        moore::compileSystemVerilog(Dsg.Source, Dsg.TopModule, M);
    ASSERT_TRUE(R.Ok) << Dsg.Key << ": " << R.Error;
    Design D = elaborate(M, R.TopUnit);
    ASSERT_TRUE(D.ok()) << Dsg.Key << ": " << D.Error;
    for (const UnitInstance &UI : D.Instances) {
      LirUnit L = lowerUnit(*UI.U);
      EXPECT_FALSE(L.dump().empty());
      EXPECT_EQ(L.NumValues <= L.NumSlots, true);
      if (L.StableWait) {
        unsigned Waits = 0;
        for (const LirOp &Op : L.Ops) {
          if (Op.C != LirOpc::Wait)
            continue;
          ++Waits;
          EXPECT_EQ(Op.A, -1) << Dsg.Key << " @" << UI.U->name();
        }
        EXPECT_EQ(Waits, 1u) << Dsg.Key << " @" << UI.U->name();
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Cross-engine equivalence on the layer's new features
//===----------------------------------------------------------------------===//

TEST_F(LirTest, SubSignalConAliasesAcrossEngines) {
  // `con` of a whole signal with an element of an array signal: the
  // whole signal becomes an alias view, so driving it lands in the
  // array element, identically on both engines.
  const char *Src = R"(
entity @top () -> () {
  %z8 = const i8 0
  %arr0 = [i8 %z8, %z8]
  %mem = sig [2 x i8] %arr0
  %tap = sig i8 %z8
  %el = extf i8$ %mem, 1
  con i8$ %tap, %el
  inst @drv_tap () -> (i8$ %tap)
}
proc @drv_tap () -> (i8$ %o) {
entry:
  %v = const i8 55
  %t = const time 1ns
  drv i8$ %o, %v after %t
  halt
}
)";
  auto Ref = runAllEngines(Src, "top");
  RtValue Mem = signalValue(*Ref, "/mem");
  ASSERT_EQ(Mem.kind(), RtValue::Kind::Array);
  EXPECT_EQ(Mem.elements()[0].intValue().zextToU64(), 0u);
  EXPECT_EQ(Mem.elements()[1].intValue().zextToU64(), 55u);
}

TEST_F(LirTest, SubSignalConWakesWatchers) {
  // Probing through the aliased signal observes writes made to the
  // aliased-into element, and the watcher wakes on them.
  const char *Src = R"(
entity @top () -> () {
  %z8 = const i8 0
  %arr0 = [i8 %z8, %z8]
  %mem = sig [2 x i8] %arr0
  %tap = sig i8 %z8
  %out = sig i8 %z8
  %el = extf i8$ %mem, 0
  con i8$ %tap, %el
  inst @drv_el () -> (i8$ %el)
  inst @fwd (i8$ %tap) -> (i8$ %out)
}
proc @drv_el () -> (i8$ %o) {
entry:
  %v = const i8 7
  %t = const time 1ns
  drv i8$ %o, %v after %t
  halt
}
proc @fwd (i8$ %in) -> (i8$ %o) {
entry:
  %iv = prb i8$ %in
  %t = const time 0s
  drv i8$ %o, %iv after %t
  wait %entry for %in
}
)";
  auto Ref = runAllEngines(Src, "top");
  EXPECT_EQ(signalValue(*Ref, "/out").intValue().zextToU64(), 7u);
  // Natively, the probe of the alias resolves through read() per access.
  if (LastJit.NativeProcs != 0) {
    EXPECT_EQ(LastJit.ResolvedPrbs, 1u);
  }
}

TEST_F(LirTest, ArraySliceOfSignalAcrossEngines) {
  // `exts` on an array-typed signal yields an element-range sub-signal
  // that drives and probes uniformly in both engines.
  const char *Src = R"(
entity @top () -> () {
  %z8 = const i8 0
  %arr0 = [i8 %z8, %z8, %z8, %z8]
  %mem = sig [4 x i8] %arr0
  %mid = exts [2 x i8]$ %mem, 1
  inst @slicer () -> ([2 x i8]$ %mid)
}
proc @slicer () -> ([2 x i8]$ %s) {
entry:
  %a = const i8 11
  %b = const i8 22
  %v = [i8 %a, %b]
  %t = const time 1ns
  drv [2 x i8]$ %s, %v after %t
  wait %done for %t
done:
  %r = prb [2 x i8]$ %s
  %e0 = extf i8 %r, 0
  %e1 = extf i8 %r, 1
  %sum = add i8 %e0, %e1
  halt
}
)";
  auto Ref = runAllEngines(Src, "top");
  RtValue Mem = signalValue(*Ref, "/mem");
  ASSERT_EQ(Mem.kind(), RtValue::Kind::Array);
  EXPECT_EQ(Mem.elements()[0].intValue().zextToU64(), 0u);
  EXPECT_EQ(Mem.elements()[1].intValue().zextToU64(), 11u);
  EXPECT_EQ(Mem.elements()[2].intValue().zextToU64(), 22u);
  EXPECT_EQ(Mem.elements()[3].intValue().zextToU64(), 0u);
}

TEST_F(LirTest, ArrayAndSliceProbesAcrossEngines) {
  // A whole array signal and an array slice of it, probed by one
  // process: natively, the whole signal reads its storage in place and
  // the slice resolves through read() on every access.
  const char *Src = R"(
entity @top () -> () {
  %z8 = const i8 0
  %arr0 = [i8 %z8, %z8, %z8, %z8]
  %mem = sig [4 x i8] %arr0
  %mid = exts [2 x i8]$ %mem, 1
  %out = sig i8 %z8
  inst @fill () -> ([4 x i8]$ %mem)
  inst @mix ([4 x i8]$ %mem, [2 x i8]$ %mid) -> (i8$ %out)
}
proc @fill () -> ([4 x i8]$ %m) {
entry:
  %a = const i8 3
  %b = const i8 5
  %c = const i8 9
  %d = const i8 17
  %v = [i8 %a, %b, %c, %d]
  %t = const time 1ns
  drv [4 x i8]$ %m, %v after %t
  halt
}
proc @mix ([4 x i8]$ %m, [2 x i8]$ %s) -> (i8$ %o) {
entry:
  %w = prb [4 x i8]$ %m
  %r = prb [2 x i8]$ %s
  %w0 = extf i8 %w, 0
  %w3 = extf i8 %w, 3
  %r0 = extf i8 %r, 0
  %r1 = extf i8 %r, 1
  %x = add i8 %w0, %w3
  %y = add i8 %r0, %r1
  %z = xor i8 %x, %y
  %t0 = const time 0s
  drv i8$ %o, %z after %t0
  wait %entry for %m
}
)";
  auto Ref = runAllEngines(Src, "top");
  // (3 + 17) ^ (5 + 9)
  EXPECT_EQ(signalValue(*Ref, "/out").intValue().zextToU64(), 26u);
  if (LastJit.NativeProcs != 0) {
    EXPECT_EQ(LastJit.DirectPrbs, 1u);
    EXPECT_EQ(LastJit.ResolvedPrbs, 1u);
  }
}

/// A process over [4 x ELT]: array create, a var cell holding an array,
/// extf/exts/insf/inss, a phi of arrays, a mux whose index runs past the
/// end, and whole-array prb/drv, for seven 1ns iterations.
std::string wordArraySrc(const std::string &Elt) {
  std::string S = R"(
entity @wtop () -> () {
  %z = const ELT 0
  %a0 = [ELT %z, %z, %z, %z]
  %mem = sig [4 x ELT] %a0
  %pick = sig ELT %z
  inst @shuf ([4 x ELT]$ %mem) -> ([4 x ELT]$ %mem, ELT$ %pick)
}
proc @shuf ([4 x ELT]$ %in) -> ([4 x ELT]$ %out, ELT$ %pick) {
entry:
  %one = const ELT 1
  %k = const ELT 7
  %n0 = const i8 0
  %n1 = const i8 1
  %n7 = const i8 7
  %t = const time 1ns
  %init = [ELT %k, %one, %n0e, %k]
  %cell = var [4 x ELT] %init
  %n = var i8 %n0
  br %loop
loop:
  %prev = phi [4 x ELT] [%init, %entry], [%c2, %next]
  %a = prb [4 x ELT]$ %in
  %c = ld [4 x ELT]* %cell
  %e = extf ELT %a, 3
  %e1 = add ELT %e, %k
  %hi = exts [2 x ELT] %c, 1
  %c1 = insf [4 x ELT] %c, %e1, 0
  %c2 = inss [4 x ELT] %c1, %hi, 2
  st [4 x ELT]* %cell, %c2
  %i = ld i8* %n
  %i1 = add i8 %i, %n1
  st i8* %n, %i1
  %m = mux ELT %prev, %i
  drv [4 x ELT]$ %out, %c2 after %t
  drv ELT$ %pick, %m after %t
  %more = ult i8 %i1, %n7
  br %more, %done, %next
next:
  wait %loop for %t
done:
  halt
}
)";
  S.replace(S.find("%n0e"), 4, "%one");
  for (size_t Pos; (Pos = S.find("ELT")) != std::string::npos;)
    S.replace(Pos, 3, Elt);
  return S;
}

// Word arrays: the [4 x i8] process keeps every array in the word file
// (ArrW ops, N-word copies for the phi and the var cell) and runs
// natively on the same words; Interp, Blaze with the JIT off and native
// Blaze agree. The same process over [4 x i65] is outside the word model:
// its arrays stay RtValues, it stays interpreted, and it computes the
// same numbers.
TEST_F(LirTest, WordArraysAcrossEngines) {
  std::string Src = wordArraySrc("i8");
  Module *M = parseFresh(Src.c_str(), "warr");
  LirUnit L = lowerNamed(*M, "shuf");
  // Slots 0-33, cells 34 (the array) and 35 (the counter); the word
  // arrays' words follow from 36.
  EXPECT_EQ(L.dump(),
            "lir process @shuf {\n"
            "  slots: 34 (values 32)  cells: 2  words: 12  regprev: 0  "
            "delprev: 0\n"
            "  sensitivity: dynamic\n"
            "  const [8] = 1ns\n"
            "  const w[3] = 1\n"
            "  const w[4] = 7\n"
            "  const w[5] = 0\n"
            "  const w[6] = 1\n"
            "  const w[7] = 7\n"
            "  0: purew array w[36..39], ops=(w[4], w[3], w[3], w[4])\n"
            "  1: var w[70..73], w[36..39] ptr=[10]\n"
            "  2: varw w[35], w[5] ptr=[11]\n"
            "  3: jmp @22\n"
            "  4: prb w[44..47], [0]\n"
            "  5: ld w[48..51], w[70..73] ptr=[10]\n"
            "  6: purew extf w[16], ops=(w[44..47]) imm=3\n"
            "  7: purew add w[17], w[16], w[4]\n"
            "  8: purew exts w[52..53], ops=(w[48..51]) imm=1\n"
            "  9: purew insf w[54..57], ops=(w[48..51], w[17])\n"
            "  10: purew inss w[58..61], ops=(w[54..57], w[52..53]) imm=2\n"
            "  11: st w[70..73], w[58..61] ptr=[10]\n"
            "  12: ldw w[22], w[35] ptr=[11]\n"
            "  13: purew add w[23], w[22], w[6]\n"
            "  14: stw w[35], w[23] ptr=[11]\n"
            "  15: purew mux w[25], ops=(w[40..43], w[22])\n"
            "  16: drv [1], w[58..61] after [8]\n"
            "  17: drvw [2], w[25] after [8]\n"
            "  18: purew ult w[28], w[23], w[7]\n"
            "  19: condjmpw w[28] ? @20 : @21\n"
            "  20: wait resume=@25 timeout=[8] obs=()\n"
            "  21: halt\n"
            "  22: copy w[62..65], w[36..39]\n"
            "  23: copy w[40..43], w[62..65]\n"
            "  24: jmp @4\n"
            "  25: copy w[66..69], w[58..61]\n"
            "  26: copy w[40..43], w[66..69]\n"
            "  27: jmp @4\n"
            "}\n");
  auto Ref = runAllEngines(Src.c_str(), "wtop");
  if (LastJit.Compiled) {
    EXPECT_EQ(LastJit.NativeProcs, 1u);
  }
  // Seven iterations: [7, 1, 0, 7] becomes [8, 1, 1, 1]; the last mux
  // index, 6, reads element 3.
  RtValue Mem = signalValue(*Ref, "/mem");
  ASSERT_EQ(Mem.kind(), RtValue::Kind::Array);
  std::vector<uint64_t> Got;
  for (const RtValue &E : Mem.elements())
    Got.push_back(E.intValue().zextToU64());
  EXPECT_EQ(Got, (std::vector<uint64_t>{8, 1, 1, 1}));
  EXPECT_EQ(signalValue(*Ref, "/pick").intValue().zextToU64(), 1u);

  std::string Wide = wordArraySrc("i65");
  Module *MW = parseFresh(Wide.c_str(), "warr65");
  LirUnit LW = lowerNamed(*MW, "shuf");
  for (const LirOp &Op : LW.Ops)
    EXPECT_NE(Op.C, LirOpc::ArrW) << LW.dump();
  for (const LirSlot &Sl : LW.Slots)
    EXPECT_TRUE(Sl.Word || !Sl.Len) << LW.dump();
  auto RefW = runAllEngines(Wide.c_str(), "wtop");
  EXPECT_EQ(LastJit.NativeProcs, 0u);
  EXPECT_EQ(RefW->trace().digest(), Ref->trace().digest());
}

TEST_F(LirTest, WordLaneBoundaryAcrossEngines) {
  // Drives on both sides of the word-lane boundary. Word lane: whole
  // i63 and i64 signals (driven with their top bits set) and a
  // `con`-merged i8 net driven through its non-root member. General
  // path: an i65 signal, a logic signal, a bit slice of the merged net,
  // a whole signal aliased onto an array element, and a whole array.
  // In the 1ns+1d slot the merged net takes a word, a word, a general
  // (slice) and a word update, which must apply in that order.
  const char *Src = R"(
entity @top () -> () {
  %z8 = const i8 0
  %z63 = const i63 0
  %z64 = const i64 0
  %z65 = const i65 0
  %zl = const l8 "00000000"
  %s63 = sig i63 %z63
  %s64 = sig i64 %z64
  %s65 = sig i65 %z65
  %sl = sig l8 %zl
  %ma = sig i8 %z8
  %mb = sig i8 %z8
  con i8$ %ma, %mb
  %lo = exts i4$ %ma, 0
  %arr0 = [i8 %z8, %z8]
  %mem = sig [2 x i8] %arr0
  %el = extf i8$ %mem, 1
  %tap = sig i8 %z8
  con i8$ %tap, %el
  inst @words () -> (i63$ %s63, i64$ %s64, i8$ %mb)
  inst @mixed () -> (i8$ %ma, i4$ %lo, i8$ %tap, [2 x i8]$ %mem)
  inst @wide () -> (i65$ %s65, l8$ %sl)
}
proc @words () -> (i63$ %a, i64$ %b, i8$ %m) {
entry:
  %a1 = const i63 0x4000000000000001
  %b1 = const i64 0xffffffffffffffff
  %m1 = const i8 0xa5
  %t1 = const time 1ns
  drv i63$ %a, %a1 after %t1
  drv i64$ %b, %b1 after %t1
  drv i8$ %m, %m1 after %t1
  wait %next for %t1
next:
  %a2 = const i63 7
  %b2 = const i64 0x8000000000000000
  %m2 = const i8 0x3c
  %t0 = const time 0s
  drv i63$ %a, %a2 after %t0
  drv i64$ %b, %b2 after %t0
  drv i8$ %m, %m2 after %t0
  halt
}
proc @mixed () -> (i8$ %w, i4$ %lo, i8$ %tap, [2 x i8]$ %mem) {
entry:
  %t1 = const time 1ns
  wait %go for %t1
go:
  %t0 = const time 0s
  %x = const i8 0x11
  %y = const i4 0xf
  %z = const i8 0x20
  drv i8$ %w, %x after %t0
  drv i4$ %lo, %y after %t0
  drv i8$ %w, %z after %t0
  %e0 = const i8 4
  %e1 = const i8 9
  %arr = [i8 %e0, %e1]
  drv [2 x i8]$ %mem, %arr after %t1
  %tv = const i8 5
  drv i8$ %tap, %tv after %t1
  halt
}
proc @wide () -> (i65$ %w, l8$ %l) {
entry:
  %w1 = const i65 0x10000000000000005
  %l1 = const l8 "01XZ01XZ"
  %t1 = const time 1ns
  drv i65$ %w, %w1 after %t1
  drv l8$ %l, %l1 after %t1
  halt
}
)";
  auto Ref = runAllEngines(Src, "top");
  EXPECT_EQ(signalValue(*Ref, "/s63").intValue().zextToU64(), 7u);
  EXPECT_EQ(signalValue(*Ref, "/s64").intValue().zextToU64(),
            0x8000000000000000ull);
  // Word 0x3c, word 0x11, slice 0xf, word 0x20: the last write wins.
  EXPECT_EQ(signalValue(*Ref, "/ma").intValue().zextToU64(), 0x20u);
  EXPECT_EQ(signalValue(*Ref, "/s65").intValue(),
            IntValue::fromString(65, "0x10000000000000005"));
  RtValue Mem = signalValue(*Ref, "/mem");
  ASSERT_EQ(Mem.kind(), RtValue::Kind::Array);
  EXPECT_EQ(Mem.elements()[0].intValue().zextToU64(), 4u);
  EXPECT_EQ(Mem.elements()[1].intValue().zextToU64(), 5u);

  // The lane each drive took: 6 word drives from @words, 2 from @mixed;
  // the slice, tap, array, i65 and logic drives stay general. The values
  // above are the lane's oracle; SchedulerTest checks word-lane against
  // all-general commits.
  for (const char *Eng : {"interp", "blaze", "jit"}) {
    EXPECT_EQ(RunStats[Eng].DrivesScheduled, 13u) << Eng;
    EXPECT_EQ(RunStats[Eng].WordDrives, 8u) << Eng;
  }
  // Natively, @words and @mixed drive through apiDrv/apiDrvArr; @wide
  // (i65, logic) stays interpreted.
  if (LastJit.NativeProcs != 0) {
    EXPECT_EQ(LastJit.NativeProcs, 2u);
  }
}

TEST_F(LirTest, RunawayGuardCountsBackwardJumps) {
  // One activation spins 2.5M times through a five-op loop (12.5M ops,
  // 2.5M backward jumps) before driving its result. Every engine counts
  // the runaway guard in backward jumps, so none mistakes the loop for
  // a hang, whatever its dispatch granularity.
  const char *Src = R"(
entity @top () -> () {
  %z = const i32 0
  %s = sig i32 %z
  inst @spin () -> (i32$ %s)
}
proc @spin () -> (i32$ %o) {
entry:
  %zero = const i32 0
  %one = const i32 1
  %n = const i32 2500000
  %t = const time 1ns
  %i = var i32 %zero
  br %loop
loop:
  %ip = ld i32* %i
  %in = add i32 %ip, %one
  st i32* %i, %in
  %cont = ult i32 %in, %n
  br %cont, %done, %loop
done:
  drv i32$ %o, %in after %t
  halt
}
)";
  auto Ref = runAllEngines(Src, "top");
  EXPECT_EQ(signalValue(*Ref, "/s").intValue().zextToU64(), 2500000u);
}

TEST_F(LirTest, FunctionRunawayGuardReturnsDefaultValue) {
  // @spin never returns: after MaxBackwardJumps backward jumps the
  // guard returns the default value of its result type (i32 0), which
  // the caller adds to and drives. Every engine, native code included,
  // follows the same rule and finishes with the same digest.
  const char *Src = R"(
entity @top () -> () {
  %z = const i32 0
  %s = sig i32 %z
  inst @caller () -> (i32$ %s)
}
proc @caller () -> (i32$ %o) {
entry:
  %one = const i32 1
  %t = const time 1ns
  %r = call i32 @spin (i32 %one)
  %n = add i32 %r, %one
  drv i32$ %o, %n after %t
  halt
}
func @spin (i32 %x) i32 {
entry:
  br %loop
loop:
  br %loop
}
)";
  auto Ref = runAllEngines(Src, "top");
  EXPECT_EQ(signalValue(*Ref, "/s").intValue().zextToU64(), 1u);
  if (LastJit.Compiled) {
    EXPECT_EQ(LastJit.NativeProcs, 1u);
  }
}

// A var whose pointer only feeds ld/st owns one fixed cell (VarW); vars
// whose pointers meet in a phi escape and keep cells in the frame's
// dynamic memory (VarM/LdM/StM). Both kinds must agree on every engine:
// the process alternates between the two escaping cells by the parity
// of the fixed counter, accumulating 1 + 0 + 2 + 4 + 6 = 13 into the first
// and 10 + 1 + 3 + 5 + 7 = 26 into the second, and drives each sum.
TEST_F(LirTest, EscapingVarPointersUseDynamicCells) {
  const char *Src = R"(
entity @top () -> () {
  %z = const i8 0
  %o = sig i8 %z
  inst @p () -> (i8$ %o)
}
proc @p () -> (i8$ %o) {
entry:
  %zero = const i8 0
  %one = const i8 1
  %ten = const i8 10
  %lim = const i8 8
  %t = const time 1ns
  %n = var i8 %zero
  %pa = var i8 %one
  %pb = var i8 %ten
  br %loop
loop:
  %nv = ld i8* %n
  %low = and i8 %nv, %one
  %odd = eq i8 %low, %one
  br %odd, %even, %oddbb
even:
  br %join
oddbb:
  br %join
join:
  %p = phi i8* [%pa, %even], [%pb, %oddbb]
  %v = ld i8* %p
  %v1 = add i8 %v, %nv
  st i8* %p, %v1
  %n1 = add i8 %nv, %one
  st i8* %n, %n1
  drv i8$ %o, %v1 after %t
  %done = eq i8 %n1, %lim
  br %done, %wait, %stop
wait:
  wait %loop for %t
stop:
  halt
}
)";
  Module *M = parseFresh(Src, "escape");
  LirUnit L = lowerNamed(*M, "p");
  std::map<LirOpc, unsigned> N;
  for (const LirOp &Op : L.Ops)
    ++N[Op.C];
  EXPECT_EQ(L.NumCells, 1u);
  EXPECT_TRUE(L.HasMemory);
  EXPECT_EQ(N[LirOpc::VarW], 1u);
  EXPECT_EQ(N[LirOpc::VarM], 2u);
  EXPECT_EQ(N[LirOpc::LdW], 1u);
  EXPECT_EQ(N[LirOpc::StW], 1u);
  EXPECT_EQ(N[LirOpc::LdM], 1u);
  EXPECT_EQ(N[LirOpc::StM], 1u);

  std::unique_ptr<InterpSim> Ref = runAllEngines(Src, "top");
  EXPECT_EQ(signalValue(*Ref, "o"), RtValue(IntValue(8, 26)));
  // The fixed counter cell, plus the two escaping cells made once.
  EXPECT_EQ(Ref->processCells(0), 3u);

  // Cut mid-run and resumed, the dynamic cells and the fixed one carry
  // over through the image.
  SimStats Full = RunStats["interp"];
  Module *MCut = parseFresh(Src, "escape.cut");
  InterpSim Cut(elaborate(*MCut, "top"));
  std::vector<uint8_t> Image;
  Cut.options().RC.MaxSteps = Full.Steps / 2;
  Cut.options().RC.CheckpointOnStop = true;
  Cut.options().RC.Checkpoint = [&](Time) {
    Cut.checkpoint(Image);
    return true;
  };
  ASSERT_EQ(Cut.run().Stop, StopReason::DeltaBudget);
  Module *MRes = parseFresh(Src, "escape.res");
  InterpSim Res(elaborate(*MRes, "top"));
  std::string Err;
  ASSERT_TRUE(Res.restore(Image, Err)) << Err;
  Res.run();
  EXPECT_EQ(Res.trace().digest(), Ref->trace().digest());
  EXPECT_EQ(signalValue(Res, "o"), RtValue(IntValue(8, 26)));
}

// The paper's central cross-simulator claim holds through the shared
// layer: one digest per design on both engines (the full-suite
// sweep lives in EngineEquivalenceTest; WaveTest asserts VCD byte-
// identity — this re-checks the accumulator through the LIR paths).
TEST_F(LirTest, AccumulatorDigestsStillAgree) {
  runAllEngines(llhd_test::accTestbench("100"), "acc_tb");
}

} // namespace
