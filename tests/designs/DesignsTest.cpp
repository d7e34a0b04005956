//===- tests/designs/DesignsTest.cpp - Table 2 design sweep ---------------===//
//
// Parameterised sweep over all ten Table 2 designs: each must compile
// through Moore, verify, simulate with zero assertion failures on the
// reference interpreter, and produce identical traces on Interp and on
// Blaze with the JIT on and off (§6.1's "traces match" claim, design by
// design).
//
//===----------------------------------------------------------------------===//

#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "ir/Verifier.h"
#include "moore/Compiler.h"
#include "passes/PassManager.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

class DesignSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DesignSweep, CompilesVerifiesSimulates) {
  designs::DesignInfo D = designs::designByKey(GetParam(), 0.0);
  ASSERT_FALSE(D.Key.empty());

  Context Ctx;
  Module M(Ctx, D.Key);
  moore::CompileResult R =
      moore::compileSystemVerilog(D.Source, D.TopModule, M);
  ASSERT_TRUE(R.Ok) << R.Error;

  std::vector<std::string> Errors;
  ASSERT_TRUE(verifyModule(M, Errors))
      << (Errors.empty() ? "" : Errors[0]);

  Design Dn = elaborate(M, R.TopUnit);
  ASSERT_TRUE(Dn.ok()) << Dn.Error;
  InterpSim Sim(std::move(Dn));
  SimStats St = Sim.run();
  EXPECT_TRUE(St.Finished) << "testbench did not finish";
  EXPECT_EQ(St.AssertFailures, 0u)
      << D.PaperName << ": self-checks failed";
  EXPECT_GT(Sim.trace().numChanges(), 0u);
}

TEST_P(DesignSweep, TracesMatchAcrossEngines) {
  designs::DesignInfo D = designs::designByKey(GetParam(), 0.0);
  ASSERT_FALSE(D.Key.empty());

  Context Ctx;
  Module M1(Ctx, "ref");
  moore::CompileResult R =
      moore::compileSystemVerilog(D.Source, D.TopModule, M1);
  ASSERT_TRUE(R.Ok) << R.Error;
  Design Dn = elaborate(M1, R.TopUnit);
  ASSERT_TRUE(Dn.ok()) << Dn.Error;
  InterpSim Ref(std::move(Dn));
  SimStats S1 = Ref.run();

  Module M2(Ctx, "blaze");
  ASSERT_TRUE(
      moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
  BlazeSim Blaze(M2, R.TopUnit);
  ASSERT_TRUE(Blaze.valid()) << Blaze.error();
  SimStats S2 = Blaze.run();

  Module M3(Ctx, "nojit");
  ASSERT_TRUE(
      moore::compileSystemVerilog(D.Source, D.TopModule, M3).Ok);
  BlazeSim::BlazeOptions NoJit;
  NoJit.Jit.M = jit::JitOptions::Mode::Off;
  BlazeSim Lir(M3, R.TopUnit, NoJit);
  ASSERT_TRUE(Lir.valid()) << Lir.error();
  SimStats S3 = Lir.run();

  EXPECT_EQ(S1.AssertFailures, 0u);
  EXPECT_EQ(S2.AssertFailures, 0u);
  EXPECT_EQ(S3.AssertFailures, 0u);
  EXPECT_EQ(Ref.trace().numChanges(), Blaze.trace().numChanges());
  EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest())
      << D.PaperName << ": Blaze trace diverges";
  EXPECT_EQ(Ref.trace().numChanges(), Lir.trace().numChanges());
  EXPECT_EQ(Ref.trace().digest(), Lir.trace().digest())
      << D.PaperName << ": Blaze --jit=off trace diverges";
}

TEST_P(DesignSweep, OptimizesWithVerifyEach) {
  // llhd-opt's --verify-each over the whole suite: the full optimization
  // pipeline must leave every unit well-formed after every pass.
  designs::DesignInfo D = designs::designByKey(GetParam(), 0.0);
  ASSERT_FALSE(D.Key.empty());

  Context Ctx;
  Module M(Ctx, D.Key);
  moore::CompileResult R =
      moore::compileSystemVerilog(D.Source, D.TopModule, M);
  ASSERT_TRUE(R.Ok) << R.Error;

  ModulePassManagerOptions Opts;
  Opts.Unit.VerifyEach = true;
  ModulePassManager MPM(Opts);
  std::string Error;
  ASSERT_TRUE(
      MPM.addPipeline("inline,unroll,mem2reg,std<fixpoint>,ecm,tcm,tcfe",
                      &Error))
      << Error;
  MPM.run(M);
  EXPECT_TRUE(MPM.verifyErrors().empty())
      << D.PaperName << ": " << MPM.verifyErrors()[0];

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << (Errors.empty() ? "" : Errors[0]);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, DesignSweep,
    ::testing::Values("gray", "fir", "lfsr", "lzc", "fifo", "cdc_gray",
                      "cdc_strobe", "rr_arbiter", "stream_delayer",
                      "riscv"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

} // namespace
