//===- tests/ir/CloneTest.cpp - In-memory module cloning -----------------===//
//
// cloneModule must be a drop-in for a print/parse round trip: the clone
// prints exactly like its source, is self-contained (callees are its own
// units), leaves the source untouched however it is transformed later,
// and Blaze's build over it emits the same native code as a build over
// parse(print(M)).
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "ir/Clone.h"
#include "jit/Runtime.h"
#include "moore/Compiler.h"
#include "passes/Passes.h"
#include "sim/Program.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace llhd;

namespace {

/// The Figure 2 accumulator testbench, with forward block references
/// (`wait %next`, `br ..., %end, ...`) and a call.
const char *FIG2 = R"(
entity @acc_tb () -> () {
  %zero0 = const i1 0
  %zero1 = const i32 0
  %clk = sig i1 %zero0
  %en = sig i1 %zero0
  %x = sig i32 %zero1
  %q = sig i32 %zero1
  inst @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q)
  inst @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en)
}
proc @acc_tb_initial (i32$ %q) -> (i1$ %clk, i32$ %x, i1$ %en) {
entry:
  %bit0 = const i1 0
  %bit1 = const i1 1
  %zero = const i32 0
  %one = const i32 1
  %many = const i32 10
  %del1ns = const time 1ns
  %del2ns = const time 2ns
  %i = var i32 %zero
  drv i1$ %en, %bit1 after %del2ns
  br %loop
loop:
  %ip = ld i32* %i
  drv i32$ %x, %ip after %del2ns
  drv i1$ %clk, %bit1 after %del1ns
  drv i1$ %clk, %bit0 after %del2ns
  wait %next for %del2ns
next:
  %qp = prb i32$ %q
  call void @acc_tb_check (i32 %ip, i32 %qp)
  %in = add i32 %ip, %one
  st i32* %i, %in
  %cont = ult i32 %ip, %many
  br %cont, %end, %loop
end:
  halt
}
func @acc_tb_check (i32 %i, i32 %q) void {
entry:
  %one = const i32 1
  %two = const i32 2
  %ip1 = add i32 %i, %one
  %ixip1 = mul i32 %i, %ip1
  %qexp = div i32 %ixip1, %two
  %eq = eq i32 %qexp, %q
  call void @llhd.assert (i1 %eq)
  ret
}
entity @acc (i1$ %clk, i32$ %x, i1$ %en) -> (i32$ %q) {
  %zero = const i32 0
  %d = sig i32 %zero
  %delay = const time 1ns
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %delay
  inst @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d)
}
proc @acc_comb (i32$ %q, i32$ %x, i1$ %en) -> (i32$ %d) {
entry:
  %delay = const time 0s 1e
  %qp = prb i32$ %q
  %enp = prb i1$ %en
  drv i32$ %d, %qp after %delay
  br %enp, %final, %enabled
enabled:
  %xp = prb i32$ %x
  %sum = add i32 %qp, %xp
  drv i32$ %d, %sum after %delay
  br %final
final:
  wait %entry for %q, %x, %en
}
)";

/// One value of every const payload kind, a phi whose incoming value is
/// defined after it, and a multi-trigger reg with delay and condition.
const char *PAYLOADS = R"(
func @count (i32 %n) i32 {
entry:
  %zero = const i32 0
  %one = const i32 1
  br %loop
loop:
  %i = phi i32 [%zero, %entry], [%in, %loop]
  %in = add i32 %i, %one
  %done = uge i32 %in, %n
  br %done, %loop, %exit
exit:
  ret i32 %in
}
func @consts () void {
entry:
  %w = const i80 1208925819614629174706175
  %t = const time 100ps 2d 1e
  %l = const l4 "01XZ"
  %e = const n6 3
  %arr = [i80 %w, %w]
  %s = {i80 %w, l4 %l}
  %el = extf i80 %arr, 1
  %sl = exts i4 %w, 2
  ret
}
entity @ff (i1$ %clk, i1$ %rst, i32$ %d) -> (i32$ %q) {
  %delay = const time 1ns
  %zero = const i32 0
  %en = const i1 1
  %clkp = prb i1$ %clk
  %rstp = prb i1$ %rst
  %dp = prb i32$ %d
  reg i32$ %q, %zero high %rstp, %dp rise %clkp after %delay if %en
}
)";

std::unique_ptr<Module> parse(Context &Ctx, const std::string &Src,
                              const std::string &Name) {
  auto M = std::make_unique<Module>(Ctx, Name);
  ParseResult R = parseModule(Src, *M);
  EXPECT_TRUE(R.Ok) << Name << ": " << R.Error;
  return M;
}

std::unique_ptr<Module> clone(const Module &M) {
  auto C = std::make_unique<Module>(M.context(), M.name() + ".clone");
  cloneModule(M, *C);
  return C;
}

/// Every use count of \p M, in unit/argument/block/instruction order.
std::vector<unsigned> useCounts(const Module &M) {
  std::vector<unsigned> N;
  for (const auto &U : M.units()) {
    for (const Argument *A : U->inputs())
      N.push_back(A->numUses());
    for (const Argument *A : U->outputs())
      N.push_back(A->numUses());
    for (const BasicBlock *BB : U->blocks()) {
      N.push_back(BB->numUses());
      for (const Instruction *I : BB->insts())
        N.push_back(I->numUses());
    }
  }
  return N;
}

/// The checks every clone must pass: identical print, callees and
/// operands all inside the clone, use lists consistent with operands.
void expectFaithfulClone(const Module &M, const std::string &Label) {
  std::unique_ptr<Module> C = clone(M);
  EXPECT_EQ(printModule(*C), printModule(M)) << Label;
  ASSERT_EQ(C->units().size(), M.units().size()) << Label;
  for (const auto &U : C->units()) {
    EXPECT_EQ(U->parent(), C.get()) << Label;
    for (const BasicBlock *BB : U->blocks())
      for (const Instruction *I : BB->insts()) {
        if (I->callee()) {
          EXPECT_EQ(C->unitByName(I->callee()->name()), I->callee())
              << Label << ": @" << U->name() << " calls outside the clone";
        }
        for (unsigned J = 0; J != I->numOperands(); ++J) {
          const Value *Op = I->operand(J);
          ASSERT_NE(Op, nullptr) << Label << ": @" << U->name();
          const Unit *Owner =
              isa<Argument>(Op)      ? cast<Argument>(Op)->parent()
              : isa<BasicBlock>(Op) ? cast<BasicBlock>(Op)->parent()
                                    : cast<Instruction>(Op)->parentUnit();
          EXPECT_EQ(Owner, U.get())
              << Label << ": @" << U->name() << " uses a foreign value";
        }
      }
  }
  EXPECT_EQ(useCounts(*C), useCounts(M)) << Label;
}

std::string compileDesign(const designs::DesignInfo &D, Module &M) {
  moore::CompileResult R =
      moore::compileSystemVerilog(D.Source, D.TopModule, M);
  EXPECT_TRUE(R.Ok) << D.Key << ": " << R.Error;
  return R.TopUnit;
}

TEST(Clone, Figure2PrintsIdentically) {
  Context Ctx;
  expectFaithfulClone(*parse(Ctx, FIG2, "fig2"), "fig2");
}

TEST(Clone, DesignsPrintIdentically) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;
    Module M(Ctx, D.Key);
    compileDesign(D, M);
    expectFaithfulClone(M, D.Key);
  }
}

TEST(Clone, ShippedExamplesPrintIdentically) {
  namespace fs = std::filesystem;
  unsigned Seen = 0;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(
           fs::path(LLHD_SOURCE_DIR) / "examples")) {
    if (E.path().extension() != ".llhd")
      continue;
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Name = E.path().filename().string();
    Context Ctx;
    expectFaithfulClone(*parse(Ctx, SS.str(), Name), Name);
    ++Seen;
  }
  EXPECT_GE(Seen, 3u);
}

TEST(Clone, PayloadsSurvive) {
  Context Ctx;
  std::unique_ptr<Module> M = parse(Ctx, PAYLOADS, "payloads");
  expectFaithfulClone(*M, "payloads");
  std::unique_ptr<Module> C = clone(*M);

  // The phi's second incoming value is defined after it.
  Instruction *Phi = C->unitByName("count")->blocks()[1]->front();
  ASSERT_EQ(Phi->opcode(), Opcode::Phi);
  Instruction *In = Phi->parent()->insts()[1];
  EXPECT_EQ(Phi->incomingValue(1), In);
  EXPECT_EQ(Phi->incomingBlock(1), Phi->parent());

  auto Src = M->unitByName("consts")->entry()->insts();
  auto Dst = C->unitByName("consts")->entry()->insts();
  EXPECT_EQ(Dst[0]->intValue(), Src[0]->intValue());
  EXPECT_EQ(Dst[0]->intValue().numWords(), 2u);
  EXPECT_EQ(Dst[1]->timeValue(), Time(100000, 2, 1));
  EXPECT_EQ(Dst[2]->logicValue(), Src[2]->logicValue());
  EXPECT_EQ(Dst[3]->enumValue(), 3u);
  EXPECT_EQ(Dst[6]->immediate(), 1u);
  EXPECT_EQ(Dst[7]->immediate(), 2u);

  const Instruction *SR = M->unitByName("ff")->entityBlock()->back();
  const Instruction *DR = C->unitByName("ff")->entityBlock()->back();
  ASSERT_EQ(DR->opcode(), Opcode::Reg);
  ASSERT_EQ(DR->regTriggers().size(), 2u);
  for (unsigned T = 0; T != 2; ++T) {
    const RegTrigger &A = SR->regTriggers()[T], &B = DR->regTriggers()[T];
    EXPECT_EQ(A.Mode, B.Mode);
    EXPECT_EQ(A.ValueIdx, B.ValueIdx);
    EXPECT_EQ(A.TriggerIdx, B.TriggerIdx);
    EXPECT_EQ(A.DelayIdx, B.DelayIdx);
    EXPECT_EQ(A.CondIdx, B.CondIdx);
  }
}

// The clone is the only thing a transformation of it can touch: the
// source prints the same and keeps every use count.
TEST(Clone, OptimisingTheCloneLeavesTheSourceAlone) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;
    Module M(Ctx, D.Key);
    compileDesign(D, M);
    std::string Before = printModule(M);
    std::vector<unsigned> Uses = useCounts(M);
    std::unique_ptr<Module> C = clone(M);
    runStandardOptimizations(*C);
    EXPECT_NE(printModule(*C), Before) << D.Key << ": nothing optimised";
    EXPECT_EQ(printModule(M), Before) << D.Key;
    EXPECT_EQ(useCounts(M), Uses) << D.Key;
  }
}

// Blaze's build over the in-memory clone emits the same translation unit
// (hence the same object-cache key) as a build over parse(print(M)).
TEST(Clone, BlazeSourceMatchesTextClone) {
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context Ctx;
    Module M(Ctx, D.Key);
    std::string Top = compileDesign(D, M);
    BlazeSim::BlazeOptions BO;
    std::string Err;
    std::shared_ptr<const LirProgram> Mem =
        BlazeSim::buildProgram(M, Top, BO, Err);
    ASSERT_TRUE(Mem) << D.Key << ": " << Err;

    auto Text = std::make_shared<Module>(Ctx, D.Key + ".text");
    ASSERT_TRUE(parseModule(printModule(M), *Text).Ok) << D.Key;
    runStandardOptimizations(*Text);
    std::shared_ptr<const LirProgram> Txt =
        LirProgram::build(elaborate(*Text, Top), BO.Jit, Text);
    ASSERT_TRUE(Mem->JitMod && Txt->JitMod) << D.Key;
    EXPECT_FALSE(Mem->JitMod->Source.empty()) << D.Key;
    EXPECT_EQ(Mem->JitMod->Source, Txt->JitMod->Source) << D.Key;
  }
}

} // namespace
