//===- sim/RtOps.h - Shared operation semantics -----------------*- C++ -*-===//
//
// One implementation of LLHD's data-flow operation semantics on runtime
// values, shared by the reference interpreter (LLHD-Sim) and the
// native-code engine (LLHD-Blaze, for the units it interprets), so that
// both produce identical traces by construction of the value semantics.
// Blaze's native code mirrors the two-state <=64-bit path through the
// helpers of jit/Prelude.h, which this header includes below.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_RTOPS_H
#define LLHD_SIM_RTOPS_H

#include "ir/Instruction.h"
#include "sim/RtValue.h"

namespace llhd {

struct SimOptions;
struct SimState;

/// The <=64-bit integer helpers native units run (jit/Prelude.h), for
/// the interpreter's word path below.
namespace prelude {
#define LLHD_JIT_ENGINE
#include "jit/Prelude.h"
} // namespace prelude

/// The result width a pure instruction's evaluation needs: the target
/// width of zext/sext/trunc and of an integer or logic exts; 0 for
/// every other instruction. Lowering stores it in LirOp::Width.
unsigned pureResultWidth(const Instruction &I);

/// The one <=64-bit evaluator: computes \p Op in place into \p Dst when
/// operand \p L (and \p R, the second operand of a binary op, else
/// null) is a two-state integer of at most 64 bits. Covers the
/// arithmetic, bitwise, shift and comparison opcodes, inss, and the
/// unary not/neg/zext/sext/trunc/exts; \p Imm is the inss/exts offset
/// and \p Width the pureResultWidth(). Returns false, leaving \p Dst
/// alone, for every other opcode or operand shape: the caller then takes
/// evalPureWide. \p Dst may hold any kind, and may be an operand.
inline bool evalIntFast(Opcode Op, const RtValue &L, const RtValue *R,
                        unsigned Imm, unsigned Width, RtValue &Dst) {
  using namespace prelude;
  if (!L.isInt())
    return false;
  const IntValue &A = L.intValue();
  unsigned W = A.width();
  if (W > 64)
    return false;
  u64 a = A.zextToU64();
  // The result: the low RW bits of V.
  unsigned RW = W;
  u64 V;

  if (!R) {
    switch (Op) {
    case Opcode::Not:
      V = ~a;
      break;
    case Opcode::Neg:
      V = 0 - a;
      break;
    case Opcode::Zext:
    case Opcode::Sext:
      if (Width > 64)
        return false;
      RW = Width;
      V = Op == Opcode::Zext ? a : u64(jsx(a, W));
      break;
    case Opcode::Trunc:
      RW = Width;
      V = a;
      break;
    case Opcode::Exts:
      RW = Width;
      V = Imm < 64 ? a >> Imm : 0;
      break;
    default:
      return false;
    }
    Dst.setWord(RW, V);
    return true;
  }

  if (!R->isInt())
    return false;
  const IntValue &B = R->intValue();
  unsigned WB = B.width();
  switch (Op) {
  // Shifts take their amount from an operand of independent width.
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr: {
    u64 Amt = B.fitsU64() ? B.zextToU64() : ~u64(0);
    V = Op == Opcode::Shl   ? jshl(a, Amt, W)
        : Op == Opcode::Shr ? jshr(a, Amt, W)
                            : jashr(a, Amt, W);
    Dst.setWord(RW, V);
    return true;
  }
  case Opcode::Inss:
    // The slice replaces bits [Imm, Imm + WB) of a, Imm + WB <= W.
    if (WB == 0)
      V = a;
    else if (WB <= 64)
      V = (a & ~(IntValue::maskOf(WB) << Imm)) | (B.zextToU64() << Imm);
    else
      return false;
    Dst.setWord(RW, V);
    return true;
  default:
    break;
  }

  if (WB != W)
    return false;
  u64 b = B.zextToU64();
  switch (Op) {
  case Opcode::Add:
    V = a + b;
    break;
  case Opcode::Sub:
    V = a - b;
    break;
  case Opcode::Mul:
    V = a * b;
    break;
  case Opcode::And:
    V = a & b;
    break;
  case Opcode::Or:
    V = a | b;
    break;
  case Opcode::Xor:
    V = a ^ b;
    break;
  case Opcode::Udiv:
    V = judiv(a, b, W);
    break;
  case Opcode::Umod:
  case Opcode::Urem:
    V = jurem(a, b);
    break;
  case Opcode::Sdiv:
    V = jsdiv(a, b, W);
    break;
  case Opcode::Srem:
    V = jsrem(a, b, W);
    break;
  case Opcode::Smod:
    V = jsmod(a, b, W);
    break;
  case Opcode::Eq:
    RW = 1;
    V = a == b;
    break;
  case Opcode::Neq:
    RW = 1;
    V = a != b;
    break;
  case Opcode::Ult:
    RW = 1;
    V = a < b;
    break;
  case Opcode::Ugt:
    RW = 1;
    V = a > b;
    break;
  case Opcode::Ule:
    RW = 1;
    V = a <= b;
    break;
  case Opcode::Uge:
    RW = 1;
    V = a >= b;
    break;
  case Opcode::Slt:
    RW = 1;
    V = jsx(a, W) < jsx(b, W);
    break;
  case Opcode::Sgt:
    RW = 1;
    V = jsx(a, W) > jsx(b, W);
    break;
  case Opcode::Sle:
    RW = 1;
    V = jsx(a, W) <= jsx(b, W);
    break;
  case Opcode::Sge:
    RW = 1;
    V = jsx(a, W) >= jsx(b, W);
    break;
  default:
    return false;
  }
  Dst.setWord(RW, V);
  return true;
}

/// Evaluates a pure data-flow opcode over already-evaluated operands:
/// evalIntFast where it applies, else evalPureWide. \p Imm is the
/// insf/extf/inss/exts immediate; \p I supplies the result type (casts,
/// exts).
RtValue evalPure(Opcode Op, const std::vector<RtValue> &Ops, unsigned Imm,
                 const Instruction *I);

/// The generic evaluator for every operand shape, with no <=64-bit
/// shortcut: arithmetic, bitwise, shifts, comparisons, mux, casts,
/// aggregate construction and insertion/extraction (on values and
/// signal refs; pointers-as-aggregates are NOT handled here). Operand
/// \p J is Base[Idx[J]]; \p Width is pureResultWidth(*I).
RtValue evalPureWide(Opcode Op, const RtValue *Base, const int32_t *Idx,
                     size_t NumOps, unsigned Imm, unsigned Width,
                     const Instruction *I);

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
