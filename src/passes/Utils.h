//===- passes/Utils.h - Shared pass utilities -------------------*- C++ -*-===//
//
// Path-condition synthesis (used by TCM and TCFE, §4.3.3/§4.4).
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_PASSES_UTILS_H
#define LLHD_PASSES_UTILS_H

#include "analysis/Dominators.h"
#include "ir/IRBuilder.h"

namespace llhd {

/// Condition under which control flows from \p From (which must dominate
/// \p To) to \p To, synthesised as the conjunction of the branch
/// decisions along the way (§4.3.3). New instructions are emitted through
/// \p B at its current insertion point. Returns null for "unconditionally
/// reached".
///
/// Merge blocks (several predecessors) contribute no condition, which is
/// only exact when every path from their immediate dominator reaches
/// them. When that cannot be shown, \p Exact (if provided) is set to
/// false and the caller must reject the transformation.
Value *pathCondition(const DominatorTree &DT, BasicBlock *From,
                     BasicBlock *To, IRBuilder &B, bool *Exact = nullptr);

/// Condition of the edge \p Pred -> \p Succ (the branch decision at
/// \p Pred); null if the edge is unconditional.
Value *edgeCondition(BasicBlock *Pred, BasicBlock *Succ, IRBuilder &B);

/// Conjunction helper: returns A&B, or the non-null one, or null.
Value *andConditions(Value *A, Value *C, IRBuilder &B);

} // namespace llhd

#endif // LLHD_PASSES_UTILS_H
