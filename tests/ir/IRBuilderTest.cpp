//===- tests/ir/IRBuilderTest.cpp - IRBuilder unit tests ------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

struct IRBuilderTest : public ::testing::Test {
  Context Ctx;
  Module M{Ctx, "t"};
};

TEST_F(IRBuilderTest, ConstTypes) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  EXPECT_EQ(B.constInt(32, 7)->type(), Ctx.intType(32));
  EXPECT_EQ(B.constTime(Time::ns(1))->type(), Ctx.timeType());
  EXPECT_EQ(B.constLogic(LogicVec::fromString("01"))->type(),
            Ctx.logicType(2));
  EXPECT_EQ(B.constEnum(Ctx.enumType(4), 2)->type(), Ctx.enumType(4));
  B.ret();
}

TEST_F(IRBuilderTest, BinaryAndCompareTypes) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  Instruction *A = B.constInt(8, 3);
  Instruction *C = B.constInt(8, 4);
  EXPECT_EQ(B.add(A, C)->type(), Ctx.intType(8));
  EXPECT_EQ(B.cmp(Opcode::Ult, A, C)->type(), Ctx.boolType());
  EXPECT_EQ(B.mul(A, C)->opcode(), Opcode::Mul);
  B.ret();
}

TEST_F(IRBuilderTest, AggregateTypes) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  Instruction *A = B.constInt(8, 1);
  Instruction *C = B.constInt(8, 2);
  Instruction *Arr = B.arrayCreate({A, C});
  EXPECT_EQ(Arr->type(), Ctx.arrayType(2, Ctx.intType(8)));
  Instruction *S = B.structCreate({A, B.constInt(4, 3)});
  EXPECT_EQ(S->type(), Ctx.structType({Ctx.intType(8), Ctx.intType(4)}));
  // Element access.
  EXPECT_EQ(B.extf(Arr, 1)->type(), Ctx.intType(8));
  EXPECT_EQ(B.extf(S, 1)->type(), Ctx.intType(4));
  Instruction *Sel = B.constInt(1, 0);
  EXPECT_EQ(B.mux(Arr, Sel)->type(), Ctx.intType(8));
  B.ret();
}

TEST_F(IRBuilderTest, SliceTypes) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  Instruction *A = B.constInt(16, 0xabcd);
  EXPECT_EQ(B.exts(A, 4, 8)->type(), Ctx.intType(8));
  Instruction *Ins = B.inss(A, B.constInt(4, 1), 0);
  EXPECT_EQ(Ins->type(), Ctx.intType(16));
  EXPECT_EQ(Ins->immediate(), 0u);
  // Both slice ops are pure data flow: lowering, elaboration and the
  // optimisation passes treat them like the other bit ops.
  EXPECT_TRUE(Ins->isPureDataFlow());
  EXPECT_TRUE(B.exts(A, 0, 4)->isPureDataFlow());
  B.ret();
}

TEST_F(IRBuilderTest, SignalsInEntity) {
  Unit *E = M.createEntity("e");
  IRBuilder B(E->entityBlock());
  Instruction *Zero = B.constInt(8, 0);
  Instruction *S = B.sig(Zero, "s");
  EXPECT_EQ(S->type(), Ctx.signalType(Ctx.intType(8)));
  Instruction *P = B.prb(S);
  EXPECT_EQ(P->type(), Ctx.intType(8));
  Instruction *D = B.constTime(Time::ns(1));
  Instruction *Drv = B.drv(S, P, D);
  EXPECT_EQ(Drv->numOperands(), 3u);
  Instruction *Cond = B.constInt(1, 1);
  EXPECT_EQ(B.drv(S, P, D, Cond)->numOperands(), 4u);
}

TEST_F(IRBuilderTest, SubSignalTypes) {
  Unit *E = M.createEntity("e");
  IRBuilder B(E->entityBlock());
  Instruction *Elem = B.constInt(8, 0);
  Instruction *Arr = B.arrayCreate({Elem, Elem, Elem});
  Instruction *S = B.sig(Arr);
  Instruction *SubSig = B.extf(S, 2);
  EXPECT_EQ(SubSig->type(), Ctx.signalType(Ctx.intType(8)));
  Instruction *Wide = B.sig(B.constInt(16, 0));
  EXPECT_EQ(B.exts(Wide, 4, 8)->type(), Ctx.signalType(Ctx.intType(8)));
}

TEST_F(IRBuilderTest, RegTriggers) {
  Unit *E = M.createEntity("e");
  IRBuilder B(E->entityBlock());
  Instruction *Zero = B.constInt(8, 0);
  Instruction *Q = B.sig(Zero, "q");
  Instruction *Clk = B.constInt(1, 0);
  Instruction *En = B.constInt(1, 1);
  Instruction *R = B.reg(Q, {{Zero, RegMode::Rise, Clk, nullptr, En}});
  ASSERT_EQ(R->regTriggers().size(), 1u);
  const RegTrigger &T = R->regTriggers()[0];
  EXPECT_EQ(T.Mode, RegMode::Rise);
  EXPECT_EQ(R->operand(T.ValueIdx), Zero);
  EXPECT_EQ(R->operand(T.TriggerIdx), Clk);
  EXPECT_EQ(T.DelayIdx, -1);
  EXPECT_EQ(R->operand(T.CondIdx), En);
}

TEST_F(IRBuilderTest, HierarchyInst) {
  Unit *Child = M.createEntity("child");
  Child->addInput(Ctx.signalType(Ctx.intType(1)), "a");
  Child->addOutput(Ctx.signalType(Ctx.intType(8)), "y");
  Child->entityBlock();

  Unit *Top = M.createEntity("top");
  IRBuilder B(Top->entityBlock());
  Instruction *A = B.sig(B.constInt(1, 0));
  Instruction *Y = B.sig(B.constInt(8, 0));
  Instruction *I = B.inst(Child, {A}, {Y});
  EXPECT_EQ(I->callee(), Child);
  EXPECT_EQ(I->numInputs(), 1u);
  EXPECT_EQ(I->numOperands(), 2u);
}

TEST_F(IRBuilderTest, MemoryOps) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  Instruction *Init = B.constInt(32, 0);
  Instruction *P = B.var(Init);
  EXPECT_EQ(P->type(), Ctx.pointerType(Ctx.intType(32)));
  EXPECT_EQ(B.ld(P)->type(), Ctx.intType(32));
  B.st(P, B.constInt(32, 5));
  Instruction *H = B.alloc(Init);
  B.freeMem(H);
  B.ret();
}

TEST_F(IRBuilderTest, FullAccumulatorVerifies) {
  // The Figure 5 right-hand side: @acc with a reg and a mux.
  Unit *Acc = M.createEntity("acc");
  auto *I1 = Ctx.signalType(Ctx.intType(1));
  auto *I32 = Ctx.signalType(Ctx.intType(32));
  Argument *Clk = Acc->addInput(I1, "clk");
  Argument *X = Acc->addInput(I32, "x");
  Argument *En = Acc->addInput(I1, "en");
  Argument *Q = Acc->addOutput(I32, "q");
  IRBuilder B(Acc->entityBlock());
  Instruction *Clkp = B.prb(Clk, "clkp");
  Instruction *Qp = B.prb(Q, "qp");
  Instruction *Xp = B.prb(X, "xp");
  Instruction *Enp = B.prb(En, "enp");
  Instruction *Sum = B.add(Qp, Xp, "sum");
  B.reg(Q, {{Sum, RegMode::Rise, Clkp, nullptr, Enp}});

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors)) << (Errors.empty() ? "" : Errors[0]);
}

} // namespace
