//===- tests/sim/EngineEquivalenceTest.cpp - Cross-engine traces ----------===//
//
// §6.1's central claim: the LLHD simulation trace is equal across
// simulators. Interp and Blaze, with its JIT on and off, must produce
// identical signal-change traces on the accumulator testbench and on
// every design of the Table 2 suite.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace llhd;

namespace {

struct EngineEquivalence : public ::testing::Test {
  Context Ctx;
  /// Blaze running every unit on the LIR interpreter.
  BlazeSim::BlazeOptions NoJit = [] {
    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::Off;
    return O;
  }();

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
};

TEST_F(EngineEquivalence, AccumulatorTracesMatch) {
  const char *Src = llhd_test::accTestbench("200");

  Module *M1 = parseFresh(Src, "m1");
  Design D1 = elaborate(*M1, "acc_tb");
  ASSERT_TRUE(D1.ok()) << D1.Error;
  InterpSim Ref(std::move(D1));
  SimStats S1 = Ref.run();

  Module *M2 = parseFresh(Src, "m2");
  BlazeSim Blaze(*M2, "acc_tb");
  ASSERT_TRUE(Blaze.valid()) << Blaze.error();
  SimStats S2 = Blaze.run();

  Module *M3 = parseFresh(Src, "m3");
  BlazeSim Lir(*M3, "acc_tb", NoJit);
  ASSERT_TRUE(Lir.valid()) << Lir.error();
  SimStats S3 = Lir.run();

  // No assertion failures anywhere.
  EXPECT_EQ(S1.AssertFailures, 0u);
  EXPECT_EQ(S2.AssertFailures, 0u);
  EXPECT_EQ(S3.AssertFailures, 0u);

  // Traces match change-for-change.
  EXPECT_EQ(Ref.trace().numChanges(), Blaze.trace().numChanges());
  EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest());
  EXPECT_EQ(Ref.trace().numChanges(), Lir.trace().numChanges());
  EXPECT_EQ(Ref.trace().digest(), Lir.trace().digest());

  // Same end of time.
  EXPECT_EQ(S1.EndTime.Fs, S2.EndTime.Fs);
  EXPECT_EQ(S1.EndTime.Fs, S3.EndTime.Fs);
}

TEST_F(EngineEquivalence, BlazeUnoptimizedAlsoMatches) {
  const char *Src = llhd_test::accTestbench("50");
  Module *M1 = parseFresh(Src, "m1");
  Design D1 = elaborate(*M1, "acc_tb");
  ASSERT_TRUE(D1.ok());
  InterpSim Ref(std::move(D1));
  Ref.run();

  Module *M2 = parseFresh(Src, "m2");
  BlazeSim::BlazeOptions O;
  O.Optimize = false;
  BlazeSim Blaze(*M2, "acc_tb", O);
  ASSERT_TRUE(Blaze.valid()) << Blaze.error();
  Blaze.run();

  EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest());
}

// Determinism must survive the event-wheel and wake-set data-structure
// changes: every design of the Table 2 suite yields one digest on Interp
// and on Blaze with the JIT on and off.
TEST_F(EngineEquivalence, DesignsSuiteDigestsAgreeAcrossEngines) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context DCtx;

    Module M1(DCtx, D.Key + ".ref");
    moore::CompileResult R =
        moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << D.Key << ": " << Dn.Error;
    InterpSim Ref(std::move(Dn));
    SimStats S1 = Ref.run();

    Module M2(DCtx, D.Key + ".blaze");
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
    BlazeSim Blaze(M2, R.TopUnit);
    ASSERT_TRUE(Blaze.valid()) << D.Key << ": " << Blaze.error();
    SimStats S2 = Blaze.run();

    Module M3(DCtx, D.Key + ".nojit");
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M3).Ok);
    BlazeSim Lir(M3, R.TopUnit, NoJit);
    ASSERT_TRUE(Lir.valid()) << D.Key << ": " << Lir.error();
    SimStats S3 = Lir.run();

    EXPECT_EQ(S1.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(S2.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(S3.AssertFailures, 0u) << D.Key;
    EXPECT_GT(Ref.trace().numChanges(), 0u) << D.Key;
    EXPECT_EQ(Ref.trace().numChanges(), Blaze.trace().numChanges())
        << D.Key;
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest())
        << D.Key << ": Blaze trace diverges";
    EXPECT_EQ(Ref.trace().numChanges(), Lir.trace().numChanges())
        << D.Key;
    EXPECT_EQ(Ref.trace().digest(), Lir.trace().digest())
        << D.Key << ": Blaze --jit=off trace diverges";
    EXPECT_EQ(S1.EndTime.Fs, S2.EndTime.Fs) << D.Key;
    EXPECT_EQ(S1.EndTime.Fs, S3.EndTime.Fs) << D.Key;
  }
}

TEST_F(EngineEquivalence, FullTraceDiffIsEmpty) {
  // Full traces (not just digests) compared entry by entry, against
  // Blaze's native code.
  const char *Src = llhd_test::accTestbench("20");
  BlazeSim::BlazeOptions O;
  O.TraceMode = Trace::Mode::Full;

  Module *M1 = parseFresh(Src, "m1");
  Design D1 = elaborate(*M1, "acc_tb");
  InterpSim Ref(std::move(D1), O);
  Ref.run();

  Module *M2 = parseFresh(Src, "m2");
  BlazeSim Blaze(*M2, "acc_tb", O);
  ASSERT_TRUE(Blaze.valid()) << Blaze.error();
  Blaze.run();
  if (Blaze.jitStats().Compiled) {
    EXPECT_GT(Blaze.jitStats().NativeProcs, 0u);
  }

  const auto &A = Ref.trace().changes();
  const auto &B = Blaze.trace().changes();
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].T, B[I].T) << "at change " << I;
    EXPECT_EQ(A[I].Sig, B[I].Sig) << "at change " << I;
    EXPECT_EQ(A[I].Val, B[I].Val) << "at change " << I;
  }
}

} // namespace
