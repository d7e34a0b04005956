//===- ir/Clone.h - Instruction and module cloning --------------*- C++ -*-===//
//
// Copying IR in memory. cloneInst is the one definition of what an
// instruction carries (opcode, type, name, immediate, callee, input
// count, const payloads, reg triggers, operands); the inliner, the loop
// unroller and desequentialisation clone through it. cloneModule copies
// a whole module with it, e.g. for Blaze, which optimises a private copy
// of the caller's design.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_IR_CLONE_H
#define LLHD_IR_CLONE_H

#include "ir/Module.h"

#include <map>

namespace llhd {

/// Value remapping table for cloning.
using ValueMap = std::map<Value *, Value *>;

/// Clones \p I (opcode, type, name and payload) with operands remapped
/// through \p VMap; unmapped operands are used as-is. The clone is not
/// inserted into any block.
Instruction *cloneInst(const Instruction *I, const ValueMap &VMap);

/// Copies every unit of \p Src into \p Dst, which must be empty and share
/// \p Src's Context: units, arguments, blocks and instructions in source
/// order, names included, so the clone prints exactly like \p Src. Calls
/// and `inst`s name the clone's own units, and every use list comes out
/// in textual order. \p Src is only read — no Use is ever registered on
/// one of its values — so any number of threads may clone one module
/// concurrently. Operands and callees outside their own unit or module
/// (invalid IR) are left null.
void cloneModule(const Module &Src, Module &Dst);

} // namespace llhd

#endif // LLHD_IR_CLONE_H
