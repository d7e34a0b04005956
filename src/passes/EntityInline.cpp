//===- passes/EntityInline.cpp - Entity flattening ----------------------------===//
//
// Inlines the bodies of instantiated child entities into the parent
// (Figure 5: "@acc_ff and @acc_comb ... are eventually inlined into the
// @acc entity"). Child inputs/outputs map onto the signals wired up at
// the instantiation; local signals are cloned.
//
//===----------------------------------------------------------------------===//

#include "ir/Clone.h"
#include "passes/Passes.h"

using namespace llhd;

bool llhd::inlineEntities(Module &M, Unit &U) {
  if (!U.isEntity() || !U.hasBody())
    return false;
  bool Changed = false;
  bool LocalChange = true;
  unsigned Budget = 1024;
  while (LocalChange && Budget--) {
    LocalChange = false;
    BasicBlock *Body = U.entityBlock();
    for (Instruction *I : Body->insts()) {
      if (I->opcode() != Opcode::InstOp)
        continue;
      Unit *C = I->callee();
      if (!C || C->isDeclaration() || !C->isEntity() || C == &U)
        continue;
      // Map the child's ports onto the wired signals.
      ValueMap VMap;
      for (unsigned J = 0; J != C->inputs().size(); ++J)
        VMap[C->input(J)] = I->operand(J);
      for (unsigned J = 0; J != C->outputs().size(); ++J)
        VMap[C->output(J)] = I->operand(I->numInputs() + J);
      // Clone the child body in front of the instantiation.
      for (Instruction *CI : C->entityBlock()->insts()) {
        Instruction *NI = cloneInst(CI, VMap);
        Body->insertBefore(NI, I);
        VMap[CI] = NI;
      }
      I->eraseFromParent();
      Changed = LocalChange = true;
      break; // Iterator invalidated; rescan.
    }
  }
  return Changed;
}
