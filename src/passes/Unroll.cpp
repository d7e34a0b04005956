//===- passes/Unroll.cpp - Counted loop unrolling ----------------------------===//
//
// Unrolls single-block counted loops with compile-time trip counts (§4.1:
// "loops are unrolled at this point; where this is not possible, the
// process is rejected"). The Moore frontend unrolls its own `for` loops,
// so this pass only needs the canonical shape:
//
//   header:                          ; preheader branches here
//     %i = phi [init, pre], [%in, header]
//     ... straight-line body ...
//     %in = add %i, step
//     %c = <cmp> %i|%in, bound       ; constant bound
//     br %c, %exit-or-header, %header-or-exit
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "passes/Passes.h"

using namespace llhd;

namespace {

const IntValue *constIntOf(Value *V) {
  auto *I = dyn_cast<Instruction>(V);
  if (!I || I->opcode() != Opcode::Const || !I->type()->isInt())
    return nullptr;
  return &I->intValue();
}

/// Evaluates the loop-exit comparison for a concrete induction value.
bool evalCmp(Opcode Op, const IntValue &A, const IntValue &B) {
  switch (Op) {
  case Opcode::Eq:  return A.eq(B);
  case Opcode::Neq: return !A.eq(B);
  case Opcode::Ult: return A.ult(B);
  case Opcode::Ugt: return A.ugt(B);
  case Opcode::Ule: return A.ule(B);
  case Opcode::Uge: return A.uge(B);
  case Opcode::Slt: return A.slt(B);
  case Opcode::Sgt: return A.sgt(B);
  case Opcode::Sle: return A.sle(B);
  case Opcode::Sge: return A.sge(B);
  default:          return false;
  }
}

struct LoopShape {
  BasicBlock *Header;
  BasicBlock *Preheader;
  BasicBlock *Exit;
  Instruction *Phi;     ///< Induction variable.
  Instruction *Step;    ///< %in = add %i, step.
  Instruction *Cmp;     ///< Exit comparison.
  Instruction *Br;      ///< Conditional terminator.
  IntValue Init, StepVal, Bound;
  bool CmpUsesNext;     ///< Comparison is against %in rather than %i.
  bool ExitOnTrue;      ///< True arm of the branch leaves the loop.
};

/// Matches the canonical single-block counted loop; false if no match.
bool matchLoop(BasicBlock *BB, LoopShape &L) {
  Instruction *T = BB->terminator();
  if (!T || T->opcode() != Opcode::Br || T->numOperands() != 3)
    return false;
  BasicBlock *FalseDest = T->brDest(0), *TrueDest = T->brDest(1);
  if ((FalseDest == BB) == (TrueDest == BB))
    return false; // Exactly one arm must loop back.
  L.Header = BB;
  L.ExitOnTrue = FalseDest == BB;
  L.Exit = L.ExitOnTrue ? TrueDest : FalseDest;
  L.Br = T;

  // Single phi defining the induction variable, two incomings.
  L.Phi = nullptr;
  for (Instruction *I : BB->insts()) {
    if (I->opcode() != Opcode::Phi)
      continue;
    if (L.Phi)
      return false; // Multiple loop-carried values: not handled.
    L.Phi = I;
  }
  if (!L.Phi || L.Phi->numIncoming() != 2 || !L.Phi->type()->isInt())
    return false;
  unsigned BackIdx = L.Phi->incomingBlock(0) == BB ? 0 : 1;
  if (L.Phi->incomingBlock(BackIdx) != BB)
    return false;
  L.Preheader = L.Phi->incomingBlock(1 - BackIdx);
  const IntValue *Init = constIntOf(L.Phi->incomingValue(1 - BackIdx));
  if (!Init)
    return false;
  L.Init = *Init;

  // Back edge value: %in = add %i, const.
  L.Step = dyn_cast<Instruction>(L.Phi->incomingValue(BackIdx));
  if (!L.Step || L.Step->opcode() != Opcode::Add ||
      L.Step->parent() != BB)
    return false;
  const IntValue *StepVal = nullptr;
  if (L.Step->operand(0) == L.Phi)
    StepVal = constIntOf(L.Step->operand(1));
  else if (L.Step->operand(1) == L.Phi)
    StepVal = constIntOf(L.Step->operand(0));
  if (!StepVal || StepVal->isZero())
    return false;
  L.StepVal = *StepVal;

  // Branch condition: comparison of %i or %in against a constant.
  L.Cmp = dyn_cast<Instruction>(T->brCondition());
  if (!L.Cmp || !L.Cmp->isCompare() || L.Cmp->parent() != BB)
    return false;
  Value *CmpLhs = L.Cmp->operand(0);
  const IntValue *Bound = constIntOf(L.Cmp->operand(1));
  if (!Bound)
    return false;
  L.Bound = *Bound;
  if (CmpLhs == L.Phi)
    L.CmpUsesNext = false;
  else if (CmpLhs == L.Step)
    L.CmpUsesNext = true;
  else
    return false;

  // The header must have exactly the two expected predecessors.
  auto Preds = BB->predecessors();
  if (Preds.size() != 2)
    return false;
  // No other instruction may have uses outside the loop (we replicate
  // the body; external uses would need LCSSA phis). The induction phi
  // and step are allowed: their final value is known.
  for (Instruction *I : BB->insts())
    for (const Use *Us : I->uses()) {
      auto *UserI = cast<Instruction>(Us->user());
      if (UserI->parent() != BB && I != L.Phi && I != L.Step)
        return false;
    }
  return true;
}

/// Computes the trip count, or 0 if it exceeds \p MaxTrips / diverges.
unsigned tripCount(const LoopShape &L, unsigned MaxTrips) {
  IntValue I = L.Init;
  for (unsigned N = 1; N <= MaxTrips; ++N) {
    IntValue Next = I.add(L.StepVal);
    IntValue CmpVal = L.CmpUsesNext ? Next : I;
    bool CondTrue = evalCmp(L.Cmp->opcode(), CmpVal, L.Bound);
    bool Continues = CondTrue != L.ExitOnTrue;
    if (!Continues)
      return N;
    I = Next;
  }
  return 0;
}

} // namespace

bool llhd::unrollLoops(Unit &U, unsigned MaxTrips) {
  if (!U.hasBody() || U.isEntity())
    return false;
  bool Changed = false;
  bool LocalChange = true;
  while (LocalChange) {
    LocalChange = false;
    for (BasicBlock *BB : U.blocks()) {
      LoopShape L;
      if (!matchLoop(BB, L))
        continue;
      unsigned Trips = tripCount(L, MaxTrips);
      if (Trips == 0)
        continue;

      // Re-route the preheader to a chain of unrolled copies; the last
      // copy falls through to the exit.
      BasicBlock *Prev = L.Preheader;
      IntValue IndVal = L.Init;
      Value *FinalStep = nullptr;
      for (unsigned T = 0; T != Trips; ++T) {
        BasicBlock *Copy =
            U.createBlockAfter(BB->name() + ".u" + std::to_string(T), Prev);
        ValueMap VMap;
        IRBuilder B(Copy);
        VMap[L.Phi] = B.constInt(IndVal, L.Phi->name());
        for (Instruction *I : BB->insts()) {
          if (I == L.Phi || I == L.Br)
            continue;
          Instruction *NI = cloneInst(I, VMap);
          Copy->append(NI);
          VMap[I] = NI;
        }
        // Chain: the previous block jumps here.
        if (T == 0) {
          redirectEdges(L.Preheader, BB, Copy);
        } else {
          IRBuilder BP(Prev);
          BP.br(Copy);
        }
        Prev = Copy;
        IndVal = IndVal.add(L.StepVal);
        FinalStep = VMap[L.Step];
      }
      // Last copy continues to the exit.
      IRBuilder B(Prev);
      B.br(L.Exit);

      // External uses of the induction variable and step get the final
      // values.
      if (FinalStep)
        L.Step->replaceAllUsesWith(FinalStep);
      IRBuilder BE(U.context());
      BE.setInsertPointBefore(L.Exit->front());
      L.Phi->replaceAllUsesWith(BE.constInt(IndVal.sub(L.StepVal)));

      // Remove the old loop body.
      std::vector<Instruction *> Insts(BB->insts().begin(),
                                       BB->insts().end());
      for (Instruction *I : Insts) {
        I->replaceAllUsesWith(nullptr);
        I->eraseFromParent();
      }
      U.eraseBlock(BB);
      Changed = LocalChange = true;
      break; // Block list changed; restart.
    }
  }
  return Changed;
}
