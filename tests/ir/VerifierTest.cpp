//===- tests/ir/VerifierTest.cpp - Verifier unit tests --------------------===//

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace llhd;

namespace {

struct VerifierTest : public ::testing::Test {
  Context Ctx;
  Module M{Ctx, "t"};

  bool verify() {
    Errors.clear();
    return verifyModule(M, Errors);
  }
  bool hasError(const std::string &Needle) {
    for (const std::string &E : Errors)
      if (E.find(Needle) != std::string::npos)
        return true;
    return false;
  }
  std::vector<std::string> Errors;
};

TEST_F(VerifierTest, CleanFunctionPasses) {
  Unit *F = M.createFunction("f");
  F->addInput(Ctx.intType(32), "a");
  F->setReturnType(Ctx.intType(32));
  IRBuilder B(F->createBlock("entry"));
  B.ret(B.add(F->input(0), F->input(0)));
  EXPECT_TRUE(verify());
}

TEST_F(VerifierTest, MissingTerminator) {
  Unit *F = M.createFunction("f");
  IRBuilder B(F->createBlock("entry"));
  B.constInt(1, 0);
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("lacks a terminator"));
}

TEST_F(VerifierTest, EmptyBlock) {
  Unit *F = M.createFunction("f");
  F->createBlock("entry");
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("is empty"));
}

TEST_F(VerifierTest, WaitInFunctionRejected) {
  Unit *F = M.createFunction("f");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  B.wait(BB, {});
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("'wait' not allowed"));
}

TEST_F(VerifierTest, RetInProcessRejected) {
  Unit *P = M.createProcess("p");
  IRBuilder B(P->createBlock("entry"));
  B.ret();
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("'ret' not allowed"));
}

TEST_F(VerifierTest, RegOutsideEntityRejected) {
  Unit *P = M.createProcess("p");
  P->addOutput(Ctx.signalType(Ctx.intType(1)), "q");
  IRBuilder B(P->createBlock("entry"));
  Instruction *C = B.constInt(1, 0);
  B.reg(P->output(0), {{C, RegMode::Rise, C}});
  B.halt();
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("'reg' not allowed"));
}

TEST_F(VerifierTest, TerminatorInEntityRejected) {
  Unit *E = M.createEntity("e");
  IRBuilder B(E->entityBlock());
  B.halt();
  EXPECT_FALSE(verify());
  // Both "terminator in entity body" and unit-kind legality fire.
  EXPECT_TRUE(hasError("terminator in entity body"));
}

TEST_F(VerifierTest, NonSignalProcessArgRejected) {
  Unit *P = M.createProcess("p");
  P->addInput(Ctx.signalType(Ctx.intType(1)), "ok");
  // Bypass the builder assert by retyping after the fact.
  P->input(0)->setType(Ctx.intType(1));
  IRBuilder B(P->createBlock("entry"));
  B.halt();
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("is not a signal"));
}

TEST_F(VerifierTest, UseBeforeDefRejected) {
  Unit *F = M.createFunction("f");
  BasicBlock *BB1 = F->createBlock("entry");
  BasicBlock *BB2 = F->createBlock("second");
  IRBuilder B2(BB2);
  Instruction *C = B2.constInt(32, 1);
  B2.ret();
  IRBuilder B1(BB1);
  B1.add(C, C); // Uses a value from a non-dominating later block.
  B1.br(BB2);
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("does not dominate"));
}

// A use in an unreachable block never runs, so any definition dominates
// it (as in LLVM); a definition in an unreachable block still dominates
// no reachable use.
TEST_F(VerifierTest, UnreachableUsesAreDominated) {
  Unit *F = M.createFunction("f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead = F->createBlock("dead");
  IRBuilder B(Entry);
  Instruction *C = B.constInt(32, 1);
  B.ret();
  IRBuilder BD(Dead);
  BD.add(C, C);
  BD.ret();
  EXPECT_TRUE(verify()) << (Errors.empty() ? "" : Errors[0]);

  Unit *G = M.createFunction("g");
  BasicBlock *GEntry = G->createBlock("entry");
  BasicBlock *GDead = G->createBlock("dead");
  IRBuilder GD(GDead);
  Instruction *D = GD.constInt(32, 2);
  GD.ret();
  IRBuilder GB(GEntry);
  GB.add(D, D);
  GB.ret();
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("@g: operand"));
  EXPECT_FALSE(hasError("@f: "));
}

TEST_F(VerifierTest, DominanceAcrossDiamond) {
  Unit *F = M.createFunction("f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *L = F->createBlock("l");
  BasicBlock *R = F->createBlock("r");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Entry);
  Instruction *C = B.constInt(1, 0);
  Instruction *V = B.constInt(32, 42);
  B.condBr(C, L, R);
  IRBuilder BL(L);
  Instruction *LV = BL.add(V, V);
  BL.br(Join);
  IRBuilder BR(R);
  BR.br(Join);
  IRBuilder BJ(Join);
  Instruction *Phi = BJ.phi(Ctx.intType(32), {{LV, L}, {V, R}});
  BJ.ret(Phi);
  F->setReturnType(Ctx.intType(32));
  EXPECT_TRUE(verify()) << (Errors.empty() ? "" : Errors[0]);
}

TEST_F(VerifierTest, PhiIncomingMismatchRejected) {
  Unit *F = M.createFunction("f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Next = F->createBlock("next");
  IRBuilder B(Entry);
  Instruction *V = B.constInt(32, 1);
  B.br(Next);
  IRBuilder BN(Next);
  BN.phi(Ctx.intType(32), {{V, Entry}, {V, Next}});
  BN.ret();
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("phi incoming"));
}

TEST_F(VerifierTest, DrvTypeMismatchRejected) {
  Unit *E = M.createEntity("e");
  IRBuilder B(E->entityBlock());
  Instruction *S = B.sig(B.constInt(8, 0));
  Instruction *D = B.constTime(Time::ns(1));
  // Force a bad drive: value type differs from signal inner type.
  auto *I = new Instruction(Opcode::Drv, Ctx.voidType());
  I->appendOperand(S);
  I->appendOperand(B.constInt(4, 0));
  I->appendOperand(D);
  E->entityBlock()->append(I);
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("drv value type mismatch"));
}

TEST_F(VerifierTest, WaitWithTwoTimeoutsRejected) {
  Unit *P = M.createProcess("p");
  BasicBlock *BB = P->createBlock("entry");
  IRBuilder B(BB);
  Instruction *T1 = B.constTime(Time::ns(1));
  Instruction *T2 = B.constTime(Time::ns(2));
  // The builder only takes one timeout; append the second by hand.
  Instruction *W = B.wait(BB, {}, T1);
  W->appendOperand(T2);
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("more than one timeout"));
}

TEST_F(VerifierTest, WaitNonSignalOperandRejected) {
  Unit *P = M.createProcess("p");
  BasicBlock *BB = P->createBlock("entry");
  IRBuilder B(BB);
  Instruction *C = B.constInt(8, 0);
  Instruction *W = B.wait(BB, {});
  W->appendOperand(C); // Neither a signal nor a time.
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("neither a signal nor a time"));
}

TEST_F(VerifierTest, WaitDestInAnotherUnitRejected) {
  Unit *Other = M.createProcess("other");
  BasicBlock *Foreign = Other->createBlock("entry");
  IRBuilder BO(Foreign);
  BO.halt();
  Unit *P = M.createProcess("p");
  IRBuilder B(P->createBlock("entry"));
  B.wait(Foreign, {});
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("wait destination in another unit"));
}

TEST_F(VerifierTest, RegTriggerIndexOutOfRangeRejected) {
  Unit *E = M.createEntity("e");
  E->addOutput(Ctx.signalType(Ctx.intType(1)), "q");
  IRBuilder B(E->entityBlock());
  Instruction *C = B.constInt(1, 0);
  Instruction *R = B.reg(E->output(0), {{C, RegMode::Rise, C}});
  R->regTriggers()[0].TriggerIdx = 99; // Point outside the operand list.
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("reg trigger operand index out of range"));
}

TEST_F(VerifierTest, DuplicateUnconditionalEntityDriveRejected) {
  Unit *E = M.createEntity("e");
  E->addOutput(Ctx.signalType(Ctx.intType(8)), "q");
  IRBuilder B(E->entityBlock());
  Instruction *D = B.constTime(Time::ns(1));
  B.drv(E->output(0), B.constInt(8, 1), D);
  B.drv(E->output(0), B.constInt(8, 2), D);
  EXPECT_FALSE(verify());
  EXPECT_TRUE(hasError("duplicate unconditional drive"));
}

TEST_F(VerifierTest, ConditionalEntityDrivesAllowed) {
  // Two drives of one signal are fine when at least one is conditional
  // (the lint multi-drive check owns the design-level question).
  Unit *E = M.createEntity("e");
  E->addOutput(Ctx.signalType(Ctx.intType(8)), "q");
  IRBuilder B(E->entityBlock());
  Instruction *D = B.constTime(Time::ns(1));
  Instruction *C = B.constInt(1, 1);
  B.drv(E->output(0), B.constInt(8, 1), D);
  B.drv(E->output(0), B.constInt(8, 2), D, C);
  EXPECT_TRUE(verify()) << (Errors.empty() ? "" : Errors[0]);
}

TEST_F(VerifierTest, LevelChecking) {
  // Structural entity: prb/drv/reg allowed, but not at netlist level.
  Unit *E = M.createEntity("e");
  E->addOutput(Ctx.signalType(Ctx.intType(8)), "q");
  IRBuilder B(E->entityBlock());
  Instruction *P = B.prb(E->output(0));
  B.drv(E->output(0), P, B.constTime(Time::ns(1)));
  std::vector<std::string> Errs;
  EXPECT_TRUE(checkModuleLevel(M, IRLevel::Behavioural, Errs));
  EXPECT_TRUE(checkModuleLevel(M, IRLevel::Structural, Errs));
  EXPECT_FALSE(checkModuleLevel(M, IRLevel::Netlist, Errs));
  EXPECT_EQ(classifyModule(M), IRLevel::Structural);
}

TEST_F(VerifierTest, NetlistClassification) {
  Unit *Leaf = M.createEntity("leaf");
  Leaf->addInput(Ctx.signalType(Ctx.intType(1)), "a");
  Leaf->entityBlock();
  Unit *E = M.createEntity("top");
  IRBuilder B(E->entityBlock());
  Instruction *S = B.sig(B.constInt(1, 0));
  Instruction *S2 = B.sig(B.constInt(1, 0));
  B.con(S, S2);
  B.inst(Leaf, {S}, {});
  EXPECT_EQ(classifyModule(M), IRLevel::Netlist);
}

TEST_F(VerifierTest, ProcessClassifiesBehavioural) {
  Unit *P = M.createProcess("p");
  BasicBlock *BB = P->createBlock("entry");
  IRBuilder B(BB);
  B.halt();
  EXPECT_EQ(classifyModule(M), IRLevel::Behavioural);
}

} // namespace
