//===- passes/Utils.cpp - Shared pass utilities -----------------------------===//

#include "passes/Utils.h"

#include <map>

using namespace llhd;

Value *llhd::edgeCondition(BasicBlock *Pred, BasicBlock *Succ, IRBuilder &B) {
  Instruction *T = Pred->terminator();
  if (!T || T->opcode() != Opcode::Br || T->numOperands() != 3)
    return nullptr;
  BasicBlock *FalseDest = T->brDest(0);
  BasicBlock *TrueDest = T->brDest(1);
  if (FalseDest == TrueDest)
    return nullptr;
  if (Succ == TrueDest)
    return T->brCondition();
  assert(Succ == FalseDest && "not an edge of this terminator");
  return B.bitNot(T->brCondition());
}

Value *llhd::andConditions(Value *A, Value *C, IRBuilder &B) {
  if (!A)
    return C;
  if (!C)
    return A;
  return B.bitAnd(A, C);
}

/// True if every path leaving \p P (without passing through \p Merge)
/// reaches \p Merge, i.e. \p Merge "catches" all control flow out of
/// \p P. Exploration is bounded; cycles and exits fail the check.
static bool allPathsReach(BasicBlock *P, BasicBlock *Merge) {
  std::vector<BasicBlock *> Work = {P};
  std::map<BasicBlock *, bool> Seen;
  unsigned Budget = 1024;
  while (!Work.empty()) {
    BasicBlock *BB = Work.back();
    Work.pop_back();
    if (BB == Merge || Seen[BB])
      continue;
    Seen[BB] = true;
    if (Budget-- == 0)
      return false;
    auto Succs = BB->successors();
    if (Succs.empty())
      return false; // halt/ret escape before reaching the merge.
    Instruction *T = BB->terminator();
    if (T && T->opcode() == Opcode::Wait && BB != P)
      return false; // Leaves the temporal region.
    for (BasicBlock *S : Succs)
      Work.push_back(S);
  }
  return true;
}

Value *llhd::pathCondition(const DominatorTree &DT, BasicBlock *From,
                           BasicBlock *To, IRBuilder &B, bool *Exact) {
  assert(DT.dominates(From, To) && "From must dominate To");
  if (Exact)
    *Exact = true;
  // Walk upward from To. Single-predecessor blocks contribute the branch
  // decision of the incoming edge; merge blocks contribute nothing and
  // must catch all control flow from their immediate dominator for the
  // synthesised condition to be exact.
  Value *Cond = nullptr;
  BasicBlock *Cur = To;
  unsigned Budget = 1024;
  while (Cur != From) {
    if (Budget-- == 0) {
      if (Exact)
        *Exact = false;
      return Cond;
    }
    auto Preds = Cur->predecessors();
    if (Preds.size() == 1) {
      Cond = andConditions(Cond, edgeCondition(Preds[0], Cur, B), B);
      Cur = Preds[0];
      continue;
    }
    BasicBlock *P = DT.idom(Cur);
    if (!P) {
      if (Exact)
        *Exact = false;
      return Cond;
    }
    if (Exact && !allPathsReach(P, Cur))
      *Exact = false;
    Cur = P;
  }
  return Cond;
}
