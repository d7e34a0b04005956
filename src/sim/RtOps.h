//===- sim/RtOps.h - Shared operation semantics -----------------*- C++ -*-===//
//
// One implementation of LLHD's data-flow operation semantics on runtime
// values, shared by the reference interpreter (LLHD-Sim), the native-code
// engine (LLHD-Blaze) and the closure engine (CommSim), so that all three
// produce identical traces by construction of the value semantics (the
// scheduling semantics remain engine-specific).
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_RTOPS_H
#define LLHD_SIM_RTOPS_H

#include "ir/Instruction.h"
#include "sim/RtValue.h"

namespace llhd {

struct SimOptions;
struct SimState;

/// Evaluates a pure data-flow opcode over already-evaluated operands.
/// Handles arithmetic, bitwise, shifts, comparisons, mux, casts,
/// aggregate construction and insertion/extraction (on values, signal
/// refs and pointers-as-aggregates are NOT handled here). \p Imm is the
/// insf/extf/inss/exts immediate; \p ResultWidth carries the target
/// width for casts and exts.
RtValue evalPure(Opcode Op, const std::vector<RtValue> &Ops, unsigned Imm,
                 const Instruction *I);

/// Zero-copy variant for the compiled engines: operands are borrowed via
/// pointers. Same semantics as evalPure.
RtValue evalPureP(Opcode Op, const RtValue *const *Ops, size_t NumOps,
                  unsigned Imm, const Instruction *I);

/// Zero-copy variant for slot-indexed frames: operand \p J is
/// Base[Idx[J]]. Avoids building a pointer array per dispatched op.
RtValue evalPureIdx(Opcode Op, const RtValue *Base, const int32_t *Idx,
                    size_t NumOps, unsigned Imm, const Instruction *I);

/// The default ("don't know yet") value of a type: integers zero, logic
/// all-U, aggregates element-wise.
RtValue defaultValue(const Type *Ty);

/// The constant payload of a `const` instruction as a runtime value.
RtValue constValue(const Instruction &I);

/// Reads the sub-value of \p V designated by \p Ref's path/bits.
RtValue readSubValue(const RtValue &V, const SigRef &Ref);

/// Writes \p Sub into the part of \p V designated by \p Ref.
void writeSubValue(RtValue &V, const SigRef &Ref, const RtValue &Sub);

/// Calls the intrinsic or declared function \p Fn on behalf of the run
/// \p St configured by \p O: llhd.assert, llhd.finish, llhd.random and
/// the llhd.plusarg.* queries. Any other declaration is a no-op
/// returning its type's default value.
RtValue callIntrinsic(const Unit &Fn, const std::vector<RtValue> &Args,
                      const SimOptions &O, SimState &St);

/// The llhd.assert and llhd.finish bodies, also called by native code
/// (jit/Runtime.cpp).
void intrinsicAssert(SimState &St, bool Ok);
void intrinsicFinish(SimState &St);

} // namespace llhd

#endif // LLHD_SIM_RTOPS_H
