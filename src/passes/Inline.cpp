//===- passes/Inline.cpp - Function call inlining ----------------------------===//
//
// Inlines calls to defined functions into their callers (§4.1: "all
// function calls are inlined at this point"). Intrinsics and recursive
// callees are left alone.
//
//===----------------------------------------------------------------------===//

#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "passes/Passes.h"

using namespace llhd;

namespace {

/// True if \p F (transitively) calls itself; such functions cannot be
/// inlined exhaustively.
bool isRecursive(Unit *F, std::vector<Unit *> &Stack) {
  for (Unit *S : Stack)
    if (S == F)
      return true;
  Stack.push_back(F);
  for (BasicBlock *BB : F->blocks())
    for (Instruction *I : BB->insts())
      if (I->opcode() == Opcode::Call && I->callee() &&
          !I->callee()->isDeclaration())
        if (isRecursive(I->callee(), Stack))
          return true;
  Stack.pop_back();
  return false;
}

/// Inlines one call; returns false if it cannot be inlined.
bool inlineOneCall(Unit &Caller, Instruction *Call) {
  Unit *F = Call->callee();
  if (!F || F->isDeclaration() || !F->isFunction())
    return false;
  std::vector<Unit *> Stack;
  if (isRecursive(F, Stack))
    return false;

  BasicBlock *BB = Call->parent();

  // Split: move everything after the call into a continuation block.
  BasicBlock *Cont = Caller.createBlockAfter(BB->name() + ".cont", BB);
  unsigned CallIdx = BB->indexOf(Call);
  std::vector<Instruction *> Tail(BB->insts().begin() + CallIdx + 1,
                                  BB->insts().end());
  for (Instruction *I : Tail) {
    BB->remove(I);
    Cont->append(I);
  }

  // Clone the callee body.
  ValueMap VMap;
  for (unsigned I = 0; I != F->inputs().size(); ++I)
    VMap[F->input(I)] = Call->operand(I);
  std::map<BasicBlock *, BasicBlock *> BMap;
  for (BasicBlock *FB : F->blocks())
    BMap[FB] = Caller.createBlockAfter(F->name() + "." + FB->name(), BB);
  for (auto &[FB, NB] : BMap)
    VMap[FB] = NB;

  std::vector<std::pair<Value *, BasicBlock *>> Returns;
  for (BasicBlock *FB : F->blocks()) {
    BasicBlock *NB = BMap[FB];
    for (Instruction *FI : FB->insts()) {
      if (FI->opcode() == Opcode::Ret) {
        if (FI->numOperands() == 1) {
          Value *RetVal = FI->operand(0);
          auto It = VMap.find(RetVal);
          Returns.push_back(
              {It == VMap.end() ? RetVal : It->second, NB});
        }
        IRBuilder B(NB);
        B.br(Cont);
        continue;
      }
      Instruction *NI = cloneInst(FI, VMap);
      NB->append(NI);
      VMap[FI] = NI;
    }
  }
  // Second pass: fix forward references (phis) that were cloned before
  // their operands.
  for (auto &[FB, NB] : BMap) {
    (void)FB;
    for (Instruction *NI : NB->insts())
      for (unsigned J = 0, E = NI->numOperands(); J != E; ++J) {
        auto It = VMap.find(NI->operand(J));
        if (It != VMap.end())
          NI->setOperand(J, It->second);
      }
  }

  // Route the caller into the cloned entry.
  IRBuilder B(BB);
  B.br(BMap[F->entry()]);

  // Wire up the return value.
  if (!Call->type()->isVoid()) {
    Value *Result = nullptr;
    if (Returns.size() == 1) {
      Result = Returns[0].first;
    } else if (Returns.size() > 1) {
      // Merge the return values with a phi at the continuation's front.
      auto *Phi = new Instruction(Opcode::Phi, Call->type(),
                                  F->name() + ".ret");
      for (auto &[V, RB] : Returns) {
        Phi->appendOperand(V);
        Phi->appendOperand(RB);
      }
      Cont->insertAt(0, Phi);
      Result = Phi;
    }
    if (Result)
      Call->replaceAllUsesWith(Result);
    else
      Call->replaceAllUsesWith(nullptr);
  }
  Call->eraseFromParent();
  return true;
}

} // namespace

bool llhd::inlineCalls(Unit &U) {
  if (!U.hasBody())
    return false;
  bool Changed = false;
  bool LocalChange = true;
  unsigned Budget = 1024; // Inlining inlined calls: bound the explosion.
  while (LocalChange && Budget) {
    LocalChange = false;
    for (BasicBlock *BB : U.blocks()) {
      Instruction *Target = nullptr;
      for (Instruction *I : BB->insts())
        if (I->opcode() == Opcode::Call && I->callee() &&
            !I->callee()->isDeclaration() && I->callee()->isFunction()) {
          Target = I;
          break;
        }
      if (!Target)
        continue;
      if (inlineOneCall(U, Target)) {
        Changed = LocalChange = true;
        --Budget;
        break; // Block list changed; restart the scan.
      }
    }
  }
  return Changed;
}
