//===- passes/ProcessLowering.cpp - Trivial process to entity ----------------===//
//
// PL (§4.5): a process reduced to a single block whose wait loops back to
// it and observes every probed signal behaves exactly like an entity
// data-flow graph: re-evaluate on any input change. Such processes are
// rebuilt as entities and all instantiations are redirected.
//
//===----------------------------------------------------------------------===//

#include "ir/Clone.h"
#include "passes/Passes.h"

#include <set>

using namespace llhd;

/// Redirects all `inst` references of \p From to \p To, then erases
/// \p From and gives \p To its name.
static void replaceUnit(Module &M, Unit *From, Unit *To) {
  for (const auto &UP : M.units())
    for (BasicBlock *BB : UP->blocks())
      for (Instruction *I : BB->insts())
        if (I->callee() == From)
          I->setCallee(To);
  std::string Name = From->name();
  M.eraseUnit(From);
  M.renameUnit(To, Name);
}

bool llhd::processLowering(Module &M, Unit &U,
                           std::vector<std::string> &Notes) {
  if (!U.isProcess() || !U.hasBody() || U.blocks().size() != 1)
    return false;
  BasicBlock *BB = U.entry();
  Instruction *T = BB->terminator();
  if (!T || T->opcode() != Opcode::Wait || T->waitDest() != BB)
    return false;

  // The wait must be sensitive to every probed signal, otherwise the
  // process reacts to fewer events than an entity would (§4.5).
  std::set<Value *> Observed;
  for (unsigned J = 1, E = T->numOperands(); J != E; ++J) {
    if (T->operand(J)->type()->isTime())
      return false; // Periodic timeouts have no entity equivalent.
    Observed.insert(T->operand(J));
  }
  for (Instruction *I : BB->insts()) {
    if (I == T)
      continue;
    if (I->opcode() == Opcode::Prb) {
      if (!Observed.count(I->operand(0)))
        return false;
      continue;
    }
    if (I->isPureDataFlow() || I->opcode() == Opcode::Drv)
      continue;
    return false; // Calls, memory, nested waits: not entity material.
  }

  // Build the replacement entity.
  Unit *E = M.createEntity(U.name() + ".lowered");
  ValueMap VMap;
  for (Argument *A : U.inputs())
    VMap[A] = E->addInput(A->type(), A->name());
  for (Argument *A : U.outputs())
    VMap[A] = E->addOutput(A->type(), A->name());
  BasicBlock *Body = E->entityBlock();
  for (Instruction *I : BB->insts()) {
    if (I == T)
      continue;
    Instruction *NI = cloneInst(I, VMap);
    Body->append(NI);
    VMap[I] = NI;
  }

  Notes.push_back("@" + U.name() + ": lowered combinational process to entity");
  replaceUnit(M, &U, E);
  return true;
}
