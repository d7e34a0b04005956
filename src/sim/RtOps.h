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
// The helpers most word ops end in, forced inline into the dispatch
// loops: left to itself, GCC splits jm's mask into an out-of-line part
// that every op would call. The prelude's own text stays as native
// units see it.
[[gnu::always_inline]] static inline u64 jm(u64 v, unsigned w);
[[gnu::always_inline]] static inline s64 jsx(u64 v, unsigned w);
[[gnu::always_inline]] static inline u64 jshl(u64 a, u64 amt, unsigned w);
[[gnu::always_inline]] static inline u64 jshr(u64 a, u64 amt, unsigned w);
} // namespace prelude

/// What a call's callee is when it is declared rather than defined,
/// decoded once at lowering (LirOp::Intr); the JIT's call sites use the
/// same kinds.
enum class IntrinsicKind : uint8_t {
  None,         ///< A defined function.
  Assert,       ///< llhd.assert(cond).
  Finish,       ///< llhd.finish().
  Random,       ///< llhd.random(): the run's seeded stream.
  PlusargTest,  ///< llhd.plusarg.test.<key>.
  PlusargValue, ///< llhd.plusarg.value.<key>(default).
  Other,        ///< Any other declaration: returns its default value.
};

/// The result width a pure instruction's evaluation needs: the target
/// width of zext/sext/trunc and of an integer or logic exts; 0 for
/// every other instruction. Lowering stores it in LirOp::Width.
unsigned pureResultWidth(const Instruction &I);

/// Whether the pure op \p Op runs on words when its \p NumOps operands
/// are two-state integers of widths \p Wa (and \p Wb, the second
/// operand of a binary op) and \p Width is its pureResultWidth(); sets
/// \p RW to the result's width when it does. Covers the arithmetic,
/// bitwise, shift and comparison opcodes (operands of one width, but a
/// shift amount of any width), inss, and the unary not/neg/zext/sext/
/// trunc/exts. Operand widths other than a shift amount's must be at
/// most 64.
inline bool wordPure(Opcode Op, unsigned NumOps, unsigned Wa, unsigned Wb,
                     unsigned Width, unsigned &RW) {
  if (Wa > 64)
    return false;
  RW = Wa;
  if (NumOps == 1) {
    switch (Op) {
    case Opcode::Not:
    case Opcode::Neg:
      return true;
    case Opcode::Zext:
    case Opcode::Sext:
    case Opcode::Trunc:
    case Opcode::Exts:
      RW = Width;
      return Width <= 64;
    default:
      return false;
    }
  }
  if (NumOps != 2)
    return false;
  switch (Op) {
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr:
    return true;
  case Opcode::Inss:
    return Wb <= 64;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Udiv:
  case Opcode::Umod:
  case Opcode::Urem:
  case Opcode::Sdiv:
  case Opcode::Srem:
  case Opcode::Smod:
    return Wb == Wa;
  case Opcode::Eq:
  case Opcode::Neq:
  case Opcode::Ult:
  case Opcode::Ugt:
  case Opcode::Ule:
  case Opcode::Uge:
  case Opcode::Slt:
  case Opcode::Sgt:
  case Opcode::Sle:
  case Opcode::Sge:
    RW = 1;
    return Wb == Wa;
  default:
    return false;
  }
}

/// Every opcode evalWord() evaluates, once: X(Op) names ir::Opcode::Op.
/// Lowering gives each its own LIR opcode (LirOpc::OpW, sim/Lir.h), and
/// each interpreter dispatch loop expands this list into the cases of
/// its one switch, so a word op costs a single dispatch.
#define LLHD_WORD_OPS(X)                                                    \
  X(Not) X(Neg) X(Zext) X(Sext) X(Trunc) X(Exts) X(Shl) X(Shr) X(Ashr)      \
  X(Inss) X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Udiv) X(Umod)          \
  X(Urem) X(Sdiv) X(Srem) X(Smod) X(Eq) X(Neq) X(Ult) X(Ugt) X(Ule)         \
  X(Uge) X(Slt) X(Sgt) X(Sle) X(Sge)

/// The one <=64-bit evaluator: \p Op over the operand words \p a and \p b
/// (b is ignored by unary ops; a shift amount wider than 64 bits is
/// passed as all-ones), of widths \p W and \p WB, where wordPure()
/// accepted the op and gave its result width \p RW. \p Imm is the inss/
/// exts offset. Returns the result masked to RW bits. The interpreter's
/// word ops run it with a constant \p Op (LirOpc::OpW), evalIntFast with
/// a run-time one; native code runs the same jit/Prelude.h helpers.
[[gnu::always_inline]] inline uint64_t
evalWord(Opcode Op, uint64_t a, uint64_t b, unsigned W,
                         unsigned WB, unsigned Imm, unsigned RW) {
  using namespace prelude;
  u64 V;
  switch (Op) {
  case Opcode::Not: V = ~a; break;
  case Opcode::Neg: V = 0 - a; break;
  case Opcode::Zext:
  case Opcode::Trunc: V = a; break;
  case Opcode::Sext: V = u64(jsx(a, W)); break;
  case Opcode::Exts: V = Imm < 64 ? a >> Imm : 0; break;
  case Opcode::Shl: V = jshl(a, b, W); break;
  case Opcode::Shr: V = jshr(a, b, W); break;
  case Opcode::Ashr: V = jashr(a, b, W); break;
  case Opcode::Inss:
    // The slice replaces bits [Imm, Imm + WB) of a, Imm + WB <= W.
    V = WB == 0 ? a
                : (a & ~(IntValue::maskOf(WB) << Imm)) | (b << Imm);
    break;
  case Opcode::Add: V = a + b; break;
  case Opcode::Sub: V = a - b; break;
  case Opcode::Mul: V = a * b; break;
  case Opcode::And: V = a & b; break;
  case Opcode::Or: V = a | b; break;
  case Opcode::Xor: V = a ^ b; break;
  case Opcode::Udiv: V = judiv(a, b, W); break;
  case Opcode::Umod:
  case Opcode::Urem: V = jurem(a, b); break;
  case Opcode::Sdiv: V = jsdiv(a, b, W); break;
  case Opcode::Srem: V = jsrem(a, b, W); break;
  case Opcode::Smod: V = jsmod(a, b, W); break;
  case Opcode::Eq: return a == b;
  case Opcode::Neq: return a != b;
  case Opcode::Ult: return a < b;
  case Opcode::Ugt: return a > b;
  case Opcode::Ule: return a <= b;
  case Opcode::Uge: return a >= b;
  case Opcode::Slt: return jsx(a, W) < jsx(b, W);
  case Opcode::Sgt: return jsx(a, W) > jsx(b, W);
  case Opcode::Sle: return jsx(a, W) <= jsx(b, W);
  case Opcode::Sge: return jsx(a, W) >= jsx(b, W);
  default: V = 0; break; // Unreachable: wordPure() rejected it.
  }
  return jm(V, RW);
}

/// evalWord() over runtime values: computes \p Op in place into \p Dst
/// when operand \p L (and \p R, the second operand of a binary op, else
/// null) is a two-state integer that wordPure() accepts; \p Imm is the
/// inss/exts offset and \p Width the pureResultWidth(). Returns false,
/// leaving \p Dst alone, for every other opcode or operand shape: the
/// caller then takes evalPureWide. \p Dst may hold any kind, and may be
/// an operand.
inline bool evalIntFast(Opcode Op, const RtValue &L, const RtValue *R,
                        unsigned Imm, unsigned Width, RtValue &Dst) {
  if (!L.isInt() || (R && !R->isInt()))
    return false;
  const IntValue &A = L.intValue();
  unsigned WB = R ? R->intValue().width() : 0, RW;
  if (!wordPure(Op, R ? 2 : 1, A.width(), WB, Width, RW))
    return false;
  uint64_t b = 0;
  if (R)
    b = R->intValue().fitsU64() ? R->intValue().zextToU64() : ~uint64_t(0);
  Dst.setWord(RW, evalWord(Op, A.zextToU64(), b, A.width(), WB, Imm, RW));
  return true;
}

/// insf or inss into a value aggregate, in place: makes \p Dst the array
/// or struct \p Agg with \p V inserted at \p Imm (insf: element Imm
/// becomes V; inss: the elements of the array V replace Agg's from Imm
/// on). Dst reuses its element buffer when it already holds a flat
/// aggregate (RtValue's copy assignment), so a process that rewrites an
/// array in a var allocates nothing once warm. Returns false, leaving
/// Dst alone, for any other opcode or when Agg is no aggregate (an
/// integer, a logic vector or a signal ref): the caller then takes
/// evalPureWide. Dst must not be, or live inside, Agg or V.
bool insertInPlace(Opcode Op, const RtValue &Agg, const RtValue &V,
                   unsigned Imm, RtValue &Dst);

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

/// What \p Fn, a callee, is: None for a defined function, else the
/// intrinsic its name spells (Other for any other declaration).
IntrinsicKind intrinsicKind(const Unit &Fn);

/// Calls the declared function \p Fn, of kind \p K (intrinsicKind), on
/// behalf of the run \p St configured by \p O: llhd.assert,
/// llhd.finish, llhd.random and the llhd.plusarg.* queries. Any other
/// declaration is a no-op returning its type's default value.
RtValue callIntrinsic(IntrinsicKind K, const Unit &Fn,
                      const std::vector<RtValue> &Args, const SimOptions &O,
                      SimState &St);

/// The llhd.assert and llhd.finish bodies, also called by native code
/// (jit/Runtime.cpp).
void intrinsicAssert(SimState &St, bool Ok);
void intrinsicFinish(SimState &St);

} // namespace llhd

#endif // LLHD_SIM_RTOPS_H
