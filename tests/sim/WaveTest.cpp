//===- tests/sim/WaveTest.cpp - VCD waveform subsystem --------------------===//
//
// Validates the WaveWriter observer: VCD structure (header, hierarchical
// scopes, identifier allocation, $dumpvars initial state), change-only
// dumping semantics (delta glitches that settle back produce no output),
// golden traces for a known design, byte-identical dumps across Interp
// and Blaze (JIT on and off) over the whole Table 2 designs suite and
// over the word
// lane's width boundaries, the word renderer against a per-bit reference
// model, and a resumed dump appending byte-identically.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"
#include "sim/Wave.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace llhd;

namespace {

std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start < S.size()) {
    size_t End = S.find('\n', Start);
    if (End == std::string::npos)
      End = S.size();
    Out.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  return Out;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

/// The reference renderer: the writer's original per-bit string path,
/// kept as the model the word lane must reproduce byte for byte (the
/// role RtOpsTest's bit-level model plays for the integer fast path).
/// Returns the value-change line without its newline.
std::string refVcdValue(const RtValue &V, const std::string &Code) {
  if (V.isInt()) {
    const IntValue &IV = V.intValue();
    unsigned W = IV.width();
    if (W == 1)
      return std::string(IV.bit(0) ? "1" : "0") + Code;
    std::string Bits;
    bool Seen = false;
    for (unsigned I = W; I-- > 0;) {
      bool B = IV.bit(I);
      if (!Seen && !B && I != 0)
        continue; // Trim leading zeros, keep at least one digit.
      Seen |= B;
      Bits += B ? '1' : '0';
    }
    return "b" + Bits + " " + Code;
  }
  auto Char = [](Logic L) {
    switch (L) {
    case Logic::L0:
    case Logic::L:
      return '0';
    case Logic::L1:
    case Logic::H:
      return '1';
    case Logic::Z:
      return 'z';
    default:
      return 'x';
    }
  };
  const LogicVec &LV = V.logicValue();
  unsigned W = LV.width();
  if (W == 1)
    return std::string(1, Char(LV.bit(0))) + Code;
  std::string Bits;
  for (unsigned I = W; I-- > 0;)
    Bits += Char(LV.bit(I));
  return "b" + Bits + " " + Code;
}

/// Runs \p Src (LLHD assembly) on the interpreter with a WaveWriter
/// attached and returns the finished VCD text.
std::string interpVcd(const char *Src, const char *Top,
                      Time Until = Time::us(1000000000ull)) {
  Context Ctx;
  Module M(Ctx, "wave");
  ParseResult R = parseModule(Src, M);
  EXPECT_TRUE(R.Ok) << R.Error;
  Design D = elaborate(M, Top);
  EXPECT_TRUE(D.ok()) << D.Error;
  WaveWriter W;
  SimOptions Opts;
  Opts.MaxTime = Until;
  Opts.Wave = &W;
  InterpSim Sim(std::move(D), Opts);
  Sim.run();
  return W.text();
}

/// A two-signal design with a known, hand-checkable waveform: s toggles
/// at 1ns/2ns, g glitches at 3ns (x -> 1 -> x within one instant) and
/// must not appear in the dump at 3ns.
const char *GlitchSrc = R"(
entity @top () -> () {
  %z = const i1 0
  %s = sig i1 %z
  %g = sig i1 %z
  inst @driver () -> (i1$ %s, i1$ %g)
}
proc @driver () -> (i1$ %s, i1$ %g) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %t1 = const time 1ns
  %d0 = const time 0s
  drv i1$ %s, %b1 after %t1
  wait %at1 for %t1
at1:
  drv i1$ %s, %b0 after %t1
  wait %at2 for %t1
at2:
  ; Glitch: raise %g on the next delta, lower it one delta later — both
  ; drives land within the 2ns instant's delta rounds, so the settled
  ; value never moves.
  drv i1$ %g, %b1 after %d0
  wait %at2b for %d0
at2b:
  drv i1$ %g, %b0 after %d0
  wait %done for %t1
done:
  halt
}
)";

} // namespace

TEST(Wave, HeaderStructureAndScopes) {
  std::string Vcd = interpVcd(GlitchSrc, "top");
  // Header blocks in order.
  size_t Version = Vcd.find("$version");
  size_t Timescale = Vcd.find("$timescale 1fs $end");
  size_t Scope = Vcd.find("$scope module top $end");
  size_t Upscope = Vcd.find("$upscope $end");
  size_t EndDefs = Vcd.find("$enddefinitions $end");
  size_t Dumpvars = Vcd.find("#0\n$dumpvars\n");
  ASSERT_NE(Version, std::string::npos);
  ASSERT_NE(Timescale, std::string::npos);
  ASSERT_NE(Scope, std::string::npos);
  ASSERT_NE(Upscope, std::string::npos);
  ASSERT_NE(EndDefs, std::string::npos);
  ASSERT_NE(Dumpvars, std::string::npos);
  EXPECT_LT(Version, Timescale);
  EXPECT_LT(Timescale, Scope);
  EXPECT_LT(Scope, Upscope);
  EXPECT_LT(Upscope, EndDefs);
  EXPECT_LT(EndDefs, Dumpvars);

  // Both signals get a $var inside the top scope with distinct codes.
  EXPECT_NE(Vcd.find("$var wire 1 ! s $end"), std::string::npos) << Vcd;
  EXPECT_NE(Vcd.find("$var wire 1 \" g $end"), std::string::npos) << Vcd;

  // $dumpvars carries the initial state of both variables.
  size_t DumpEnd = Vcd.find("$end", Dumpvars);
  std::string Initial = Vcd.substr(Dumpvars, DumpEnd - Dumpvars);
  EXPECT_NE(Initial.find("0!"), std::string::npos);
  EXPECT_NE(Initial.find("0\""), std::string::npos);
}

TEST(Wave, ChangeOnlyDumping) {
  std::string Vcd = interpVcd(GlitchSrc, "top");
  // s: 0 -> 1 at 1ns -> 0 at 2ns. g: glitches within the 2ns instant
  // (up one delta, down the next) and must not surface at all.
  EXPECT_NE(Vcd.find("#1000000\n1!"), std::string::npos) << Vcd;
  EXPECT_NE(Vcd.find("#2000000\n0!"), std::string::npos) << Vcd;
  // No change line for g after $dumpvars: its settled value never moved.
  size_t DumpvarsEnd = Vcd.find("$end\n", Vcd.find("$dumpvars"));
  ASSERT_NE(DumpvarsEnd, std::string::npos);
  std::string Body = Vcd.substr(DumpvarsEnd + 5);
  EXPECT_EQ(Body.find('"'), std::string::npos)
      << "glitching signal leaked into the dump:\n" << Vcd;
  // And exactly the two settled s-changes were dumped.
  EXPECT_EQ(countOccurrences(Body, "!"), 2u) << Vcd;
}

TEST(Wave, GoldenCounterTrace) {
  const char *Src = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z2 = const i2 0
  %clk = sig i1 %z1
  %cnt = sig i2 %z2
  inst @clkgen () -> (i1$ %clk)
  inst @count (i1$ %clk) -> (i2$ %cnt)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @count (i1$ %clk) -> (i2$ %cnt) {
entry:
  %one = const i2 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i2$ %cnt
  %vn = add i2 %v, %one
  drv i2$ %cnt, %vn after %d0
  br %loop
}
)";
  std::string Vcd = interpVcd(Src, "top", Time::ns(4));
  const char *Golden = "$version llhd-sim $end\n"
                       "$timescale 1fs $end\n"
                       "$scope module top $end\n"
                       "$var wire 1 ! clk $end\n"
                       "$var wire 2 \" cnt [1:0] $end\n"
                       "$upscope $end\n"
                       "$enddefinitions $end\n"
                       "#0\n"
                       "$dumpvars\n"
                       "0!\n"
                       "b0 \"\n"
                       "$end\n"
                       "#1000000\n"
                       "1!\n"
                       "b1 \"\n"
                       "#2000000\n"
                       "0!\n"
                       "#3000000\n"
                       "1!\n"
                       "b10 \"\n"
                       "#4000000\n"
                       "0!\n";
  EXPECT_EQ(Vcd, Golden);
}

TEST(Wave, LogicSignalsUseFourStateAlphabet) {
  const char *Src = R"(
entity @top () -> () {
  %init = const l4 "UX1Z"
  %l = sig l4 %init
  inst @driver () -> (l4$ %l)
}
proc @driver () -> (l4$ %l) {
entry:
  %v = const l4 "01ZW"
  %t1 = const time 1ns
  drv l4$ %l, %v after %t1
  wait %done for %t1
done:
  halt
}
)";
  std::string Vcd = interpVcd(Src, "top");
  // Initial UX1Z maps to xx1z, driven 01ZW maps to 01zx (MSB first).
  EXPECT_NE(Vcd.find("bxx1z !"), std::string::npos) << Vcd;
  EXPECT_NE(Vcd.find("#1000000\nb01zx !"), std::string::npos) << Vcd;
}

TEST(Wave, HierarchicalScopesNestAndClose) {
  std::string Vcd = interpVcd(llhd_test::accTestbench("5"), "acc_tb");
  // acc_tb instantiates @acc, which instantiates @acc_ff/@acc_comb; the
  // signals live at two levels: acc_tb/{clk,en,x,q} and acc_tb/acc/d.
  EXPECT_NE(Vcd.find("$scope module acc_tb $end"), std::string::npos);
  EXPECT_NE(Vcd.find("$scope module acc $end"), std::string::npos);
  EXPECT_EQ(countOccurrences(Vcd, "$scope module"),
            countOccurrences(Vcd, "$upscope $end"));
  // Five dumpable signals, five $var definitions, all unique codes.
  EXPECT_EQ(countOccurrences(Vcd, "$var wire"), 5u) << Vcd;
}

TEST(Wave, StreamingSinkMatchesInMemoryText) {
  // streamTo() must produce byte-identical output to the accumulating
  // mode while keeping nothing buffered after finish().
  const char *Src = llhd_test::accTestbench("10");
  Context Ctx;
  auto runWith = [&](const char *Name, std::ostream *Sink) {
    Module M(Ctx, Name);
    EXPECT_TRUE(parseModule(Src, M).Ok);
    WaveWriter W;
    if (Sink)
      W.streamTo(*Sink);
    SimOptions Opts;
    Opts.Wave = &W;
    InterpSim Sim(elaborate(M, "acc_tb"), Opts);
    Sim.run();
    return W.text();
  };
  std::string InMemory = runWith("mem", nullptr);
  std::ostringstream Streamed;
  std::string Tail = runWith("stream", &Streamed);
  EXPECT_EQ(Streamed.str(), InMemory);
  EXPECT_TRUE(Tail.empty());
}

TEST(Wave, DisabledObserverCostsNothing) {
  // With no WaveWriter attached the run produces no VCD state at all;
  // the digests of traced runs with and without an observer agree, so
  // observation does not perturb simulation.
  const char *Src = llhd_test::accTestbench("20");
  Context Ctx;
  Module M1(Ctx, "a");
  ASSERT_TRUE(parseModule(Src, M1).Ok);
  InterpSim Plain(elaborate(M1, "acc_tb"));
  Plain.run();

  Module M2(Ctx, "b");
  ASSERT_TRUE(parseModule(Src, M2).Ok);
  WaveWriter W;
  SimOptions Opts;
  Opts.Wave = &W;
  InterpSim Observed(elaborate(M2, "acc_tb"), Opts);
  Observed.run();

  EXPECT_EQ(Plain.trace().digest(), Observed.trace().digest());
  EXPECT_GT(W.numDumpedChanges(), 0u);
}

// The tentpole acceptance criterion: VCD output is byte-identical across
// Interp and Blaze, with its JIT on and off, for every design of the
// Table 2 suite.
TEST(Wave, DesignsSuiteVcdByteIdenticalAcrossEngines) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;

    Module M1(Ctx, D.Key + ".ref");
    moore::CompileResult R =
        moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    WaveWriter W1;
    SimOptions O1;
    O1.Wave = &W1;
    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << D.Key << ": " << Dn.Error;
    InterpSim Ref(std::move(Dn), O1);
    Ref.run();

    Module M2(Ctx, D.Key + ".blaze");
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
    WaveWriter W2;
    BlazeSim::BlazeOptions O2;
    O2.Wave = &W2;
    BlazeSim Blaze(M2, R.TopUnit, O2);
    ASSERT_TRUE(Blaze.valid()) << D.Key << ": " << Blaze.error();
    Blaze.run();

    Module M3(Ctx, D.Key + ".nojit");
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M3).Ok);
    WaveWriter W3;
    BlazeSim::BlazeOptions O3;
    O3.Wave = &W3;
    O3.Jit.M = jit::JitOptions::Mode::Off;
    BlazeSim Lir(M3, R.TopUnit, O3);
    ASSERT_TRUE(Lir.valid()) << D.Key << ": " << Lir.error();
    Lir.run();

    EXPECT_GT(W1.numVars(), 0u) << D.Key;
    EXPECT_GT(W1.numDumpedChanges(), 0u) << D.Key;
    EXPECT_EQ(W1.text(), W2.text())
        << D.Key << ": Blaze VCD diverges from Interp";
    EXPECT_EQ(W1.text(), W3.text())
        << D.Key << ": Blaze --jit=off VCD diverges from Interp";
  }
}

// The word lane renders from a uint64_t; the reference renders bit by
// bit from the IntValue. Every width of the lane, its boundary values
// and random words of every significant length must agree byte for byte.
TEST(Wave, WordRendererMatchesReferenceModel) {
  std::mt19937_64 Rng(22);
  const std::string Codes[] = {"!", "\"#", "a~}", "~~~~", "!!!!!"};
  for (unsigned W = 1; W <= 64; ++W) {
    uint64_t Mask = W == 64 ? ~0ull : (1ull << W) - 1;
    std::vector<uint64_t> Words = {0, 1, 1ull << (W - 1), Mask};
    for (unsigned I = 0; I != 200; ++I)
      Words.push_back((Rng() & Mask) >> (Rng() % W));
    for (uint64_t Word : Words) {
      const std::string &Code = Codes[Rng() % 5];
      std::string Out = "prefix\n";
      appendVcdWord(Out, Word, W, Code);
      EXPECT_EQ(Out, "prefix\n" + refVcdValue(RtValue(IntValue(W, Word)),
                                              Code) + "\n")
          << "width " << W << " word " << Word;
    }
  }
}

namespace {

/// A $var of the width-boundary design: its type, initial value and the
/// values it is driven through, one per nanosecond.
struct BoundarySig {
  std::string Ty;
  std::string Init;
  std::vector<std::string> Vals; ///< 0, 1, top bit set, all ones.
};

std::vector<BoundarySig> boundarySignals() {
  std::vector<BoundarySig> Sigs;
  for (unsigned W : {1u, 2u, 63u, 64u, 65u}) {
    IntValue Top(W, 0);
    Top.setBit(W - 1, true);
    Sigs.push_back({"i" + std::to_string(W), W == 1 ? "1" : "2",
                    {"0", "1", Top.toString(), "-1"}});
  }
  for (unsigned W : {1u, 65u}) {
    std::string Zeros(W, '0'), Ones(W, '1'), One = Zeros, Top = Zeros;
    One.back() = '1';
    Top.front() = '1';
    Sigs.push_back({"l" + std::to_string(W), "\"" + std::string(W, 'X') + "\"",
                    {"\"" + Zeros + "\"", "\"" + One + "\"",
                     "\"" + Top + "\"", "\"" + Ones + "\""}});
  }
  return Sigs;
}

/// LLHD source of a design whose process drives every boundarySignals()
/// signal through its values at 1, 2, 3 and 4 ns. Each signal has one
/// `drv`, fed by a phi over the steps: on a nine-valued signal every
/// `drv` instruction is a driver of its own, and the contributions of
/// several would resolve to X.
std::string boundarySource(const std::vector<BoundarySig> &Sigs) {
  std::string Ent = "entity @top () -> () {\n", Ports;
  for (size_t I = 0; I != Sigs.size(); ++I) {
    std::string N = std::to_string(I), Ty = Sigs[I].Ty;
    Ent += "  %i" + N + " = const " + Ty + " " + Sigs[I].Init + "\n";
    Ent += "  %s" + N + " = sig " + Ty + " %i" + N + "\n";
    Ports += (I ? ", " : "") + Ty + "$ %s" + N;
  }
  Ent += "  inst @driver () -> (" + Ports + ")\n}\n";

  size_t Steps = Sigs.front().Vals.size();
  auto val = [](size_t I, size_t K) {
    return "%v" + std::to_string(I) + "_" + std::to_string(K);
  };
  // Step K > 0 enters the drive block from block %stepK.
  auto from = [](size_t K) {
    return K == 0 ? std::string("%entry") : "%step" + std::to_string(K);
  };
  std::string P = "proc @driver () -> (" + Ports + ") {\nentry:\n";
  P += "  %t1 = const time 1ns\n";
  for (size_t K = 0; K != Steps; ++K) {
    P += "  %c" + std::to_string(K) + " = const i8 " + std::to_string(K) +
         "\n";
    for (size_t I = 0; I != Sigs.size(); ++I)
      P += "  " + val(I, K) + " = const " + Sigs[I].Ty + " " +
           Sigs[I].Vals[K] + "\n";
  }
  P += "  br %drive\ndrive:\n  %k = phi i8";
  for (size_t K = 0; K != Steps; ++K)
    P += std::string(K ? "," : "") + " [%c" + std::to_string(K) + ", " +
         from(K) + "]";
  P += "\n";
  for (size_t I = 0; I != Sigs.size(); ++I) {
    std::string N = std::to_string(I);
    P += "  %x" + N + " = phi " + Sigs[I].Ty;
    for (size_t K = 0; K != Steps; ++K)
      P += std::string(K ? "," : "") + " [" + val(I, K) + ", " + from(K) +
           "]";
    P += "\n  drv " + Sigs[I].Ty + "$ %s" + N + ", %x" + N + " after %t1\n";
  }
  P += "  wait %next0 for %t1\n";
  // After step K, go on to step K + 1, or halt after the last.
  for (size_t K = 0; K + 1 < Steps; ++K) {
    std::string KS = std::to_string(K), Next = std::to_string(K + 1);
    P += "next" + KS + ":\n  %is" + KS + " = eq i8 %k, %c" + KS + "\n";
    P += "  br %is" + KS + ", " +
         (K + 2 < Steps ? "%next" + Next : std::string("%done")) +
         ", %step" + Next + "\n";
  }
  for (size_t K = 1; K != Steps; ++K)
    P += "step" + std::to_string(K) + ":\n  br %drive\n";
  P += "done:\n  halt\n}\n";
  return Ent + P;
}

} // namespace

// Two-state signals on both sides of the word lane's 64-bit edge and
// logic signals (always text lane) through 0, 1, top bit and all ones:
// the dump holds the reference model's line for every settled value,
// and Interp and Blaze, with its JIT on and off, agree byte for byte.
TEST(Wave, WidthBoundariesByteIdenticalAcrossEngines) {
  std::vector<BoundarySig> Sigs = boundarySignals();
  std::string Src = boundarySource(Sigs);
  Context Ctx;
  auto parse = [&](const char *Name) {
    auto M = std::make_unique<Module>(Ctx, Name);
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error << "\n" << Src;
    return M;
  };

  std::unique_ptr<Module> M1 = parse("interp");
  WaveWriter W1;
  SimOptions O1;
  O1.Wave = &W1;
  InterpSim Ref(elaborate(*M1, "top"), O1);
  Ref.run();

  std::unique_ptr<Module> M2 = parse("blaze");
  WaveWriter W2;
  BlazeSim::BlazeOptions O2;
  O2.Wave = &W2;
  BlazeSim Blaze(*M2, "top", O2);
  ASSERT_TRUE(Blaze.valid()) << Blaze.error();
  Blaze.run();

  std::unique_ptr<Module> M3 = parse("nojit");
  WaveWriter W3;
  BlazeSim::BlazeOptions O3;
  O3.Wave = &W3;
  O3.Jit.M = jit::JitOptions::Mode::Off;
  BlazeSim Lir(*M3, "top", O3);
  ASSERT_TRUE(Lir.valid()) << Lir.error();
  Lir.run();

  const std::string &Vcd = W1.text();
  EXPECT_EQ(W1.numVars(), Sigs.size());
  // Codes are allocated in signal order: '!', '"', '#', ...
  for (size_t I = 0; I != Sigs.size(); ++I) {
    std::string Code(1, static_cast<char>('!' + I));
    unsigned W = std::stoul(Sigs[I].Ty.substr(1));
    for (const std::string &Lit : Sigs[I].Vals) {
      RtValue V = Sigs[I].Ty[0] == 'i'
                      ? RtValue(IntValue::fromString(W, Lit))
                      : RtValue(LogicVec::fromString(
                            Lit.substr(1, Lit.size() - 2)));
      std::string Line = "\n" + refVcdValue(V, Code) + "\n";
      EXPECT_NE(Vcd.find(Line), std::string::npos)
          << Sigs[I].Ty << " " << Lit << ": missing" << Line << Vcd;
    }
  }
  EXPECT_EQ(W2.text(), Vcd) << "Blaze VCD diverges from Interp";
  EXPECT_EQ(W3.text(), Vcd) << "Blaze --jit=off VCD diverges from Interp";
}

// A resumed writer allocates begin()'s codes and seeds its last-dumped
// words from the restored signal table. %g glitches away from its
// non-zero settled value and back every cycle: if resume() left the word
// cache unseeded, the first glitch after the cut would dump a spurious
// line, and the stitched dump would differ from an uninterrupted one.
TEST(Wave, ResumedWordLaneAppendsByteIdentically) {
  const char *Src = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z8 = const i8 0
  %g0 = const i8 85
  %clk = sig i1 %z1
  %cnt = sig i8 %z8
  %g = sig i8 %g0
  inst @clkgen () -> (i1$ %clk)
  inst @count (i1$ %clk) -> (i8$ %cnt, i8$ %g)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @count (i1$ %clk) -> (i8$ %cnt, i8$ %g) {
entry:
  %one = const i8 1
  %d0 = const time 0s
  %ga = const i8 170
  %gb = const i8 85
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i8$ %cnt
  %vn = add i8 %v, %one
  drv i8$ %cnt, %vn after %d0
  drv i8$ %g, %ga after %d0
  wait %back for %d0
back:
  drv i8$ %g, %gb after %d0
  br %loop
}
)";
  Context Ctx;
  auto makeSim = [&](const char *Name, WaveWriter &W) {
    auto M = std::make_unique<Module>(Ctx, Name);
    EXPECT_TRUE(parseModule(Src, *M).Ok);
    SimOptions O;
    O.MaxTime = Time::ns(40);
    O.Wave = &W;
    auto Sim = std::make_unique<InterpSim>(elaborate(*M, "top"), O);
    return std::make_pair(std::move(M), std::move(Sim));
  };

  WaveWriter WRef;
  auto Ref = makeSim("ref", WRef);
  SimStats SRef = Ref.second->run();

  WaveWriter WCut;
  auto Cut = makeSim("cut", WCut);
  std::vector<uint8_t> Image;
  InterpSim &CutSim = *Cut.second;
  CutSim.options().RC.MaxSteps = SRef.Steps / 2;
  CutSim.options().RC.CheckpointOnStop = true;
  CutSim.options().RC.Checkpoint = [&](Time) {
    Image.clear();
    CutSim.checkpoint(Image);
    return true;
  };
  EXPECT_EQ(CutSim.run().Stop, StopReason::DeltaBudget);
  ASSERT_FALSE(Image.empty());

  WaveWriter WRes;
  auto Res = makeSim("res", WRes);
  std::string Err;
  ASSERT_TRUE(Res.second->restore(Image, Err)) << Err;
  Res.second->run();

  // %g ('#') never settles on a new value, so it never leaves $dumpvars.
  const std::string &RefVcd = WRef.text();
  std::string Body =
      RefVcd.substr(RefVcd.find("$end\n", RefVcd.find("$dumpvars")));
  EXPECT_EQ(countOccurrences(Body, " #\n"), 0u) << RefVcd;
  EXPECT_GT(WRes.numDumpedChanges(), 0u);
  EXPECT_EQ(WCut.text() + WRes.text(), WRef.text());
}
