//===- sim/RtOps.cpp - Shared operation semantics ----------------------------===//

#include "sim/RtOps.h"
#include "ir/Type.h"
#include "ir/Unit.h"
#include "sim/Interp.h"

#include <cstdlib>
#include <cstring>

using namespace llhd;

RtValue llhd::defaultValue(const Type *Ty) {
  switch (Ty->kind()) {
  case Type::Kind::Int:
    return RtValue(IntValue(cast<IntType>(Ty)->width(), 0));
  case Type::Kind::Enum:
    return RtValue(IntValue(Ty->bitWidth(), 0));
  case Type::Kind::Logic:
    return RtValue(LogicVec(cast<LogicType>(Ty)->width(), Logic::U));
  case Type::Kind::Time:
    return RtValue(Time());
  case Type::Kind::Array: {
    const auto *AT = cast<ArrayType>(Ty);
    std::vector<RtValue> Elems(AT->length(), defaultValue(AT->element()));
    return RtValue::makeArray(std::move(Elems));
  }
  case Type::Kind::Struct: {
    const auto *ST = cast<StructType>(Ty);
    std::vector<RtValue> Fields;
    for (Type *F : ST->fields())
      Fields.push_back(defaultValue(F));
    return RtValue::makeStruct(std::move(Fields));
  }
  default:
    return RtValue();
  }
}

RtValue llhd::constValue(const Instruction &I) {
  assert(I.opcode() == Opcode::Const && "not a constant");
  switch (I.type()->kind()) {
  case Type::Kind::Int:
    return RtValue(I.intValue());
  case Type::Kind::Enum:
    return RtValue(IntValue(I.type()->bitWidth(), I.enumValue()));
  case Type::Kind::Logic:
    return RtValue(I.logicValue());
  case Type::Kind::Time:
    return RtValue(I.timeValue());
  default:
    assert(false && "invalid constant type");
    return RtValue();
  }
}

/// Converts a logic operand to its integer interpretation for mixed ops.
static const IntValue intOf(const RtValue &V) {
  if (V.isInt())
    return V.intValue();
  assert(V.isLogic() && "expected int or logic operand");
  return V.logicValue().toIntValue();
}

//===----------------------------------------------------------------------===//
// Width <= 64 two-state fast path
//===----------------------------------------------------------------------===//

namespace {
#define LLHD_JIT_ENGINE
#include "jit/Prelude.h" // The helpers native units run.
} // namespace

/// Evaluates the common two-state opcodes directly on uint64_t when every
/// operand fits one word, writing the result into \p Out. Returns false
/// when \p Op (or the operand shapes) need the generic wide path. The
/// RtOps unit test cross-checks both paths against a reference model.
static bool evalIntFast(Opcode Op, const RtValue &L, const RtValue &R,
                        RtValue &Out) {
  if (!L.isInt() || !R.isInt())
    return false;
  const IntValue &A = L.intValue(), &B = R.intValue();
  unsigned W = A.width();
  if (W > 64)
    return false;
  u64 a = A.zextToU64();

  // Shifts take their amount from an operand of independent width.
  if (Op == Opcode::Shl || Op == Opcode::Shr || Op == Opcode::Ashr) {
    u64 Amt = B.fitsU64() ? B.zextToU64() : ~u64(0);
    u64 V = Op == Opcode::Shl   ? jshl(a, Amt, W)
            : Op == Opcode::Shr ? jshr(a, Amt, W)
                                : jashr(a, Amt, W);
    Out = RtValue(IntValue(W, V));
    return true;
  }

  if (B.width() != W)
    return false;
  u64 b = B.zextToU64();
  u64 V;
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
    Out = RtValue(IntValue(1, a == b));
    return true;
  case Opcode::Neq:
    Out = RtValue(IntValue(1, a != b));
    return true;
  case Opcode::Ult:
    Out = RtValue(IntValue(1, a < b));
    return true;
  case Opcode::Ugt:
    Out = RtValue(IntValue(1, a > b));
    return true;
  case Opcode::Ule:
    Out = RtValue(IntValue(1, a <= b));
    return true;
  case Opcode::Uge:
    Out = RtValue(IntValue(1, a >= b));
    return true;
  case Opcode::Slt:
    Out = RtValue(IntValue(1, jsx(a, W) < jsx(b, W)));
    return true;
  case Opcode::Sgt:
    Out = RtValue(IntValue(1, jsx(a, W) > jsx(b, W)));
    return true;
  case Opcode::Sle:
    Out = RtValue(IntValue(1, jsx(a, W) <= jsx(b, W)));
    return true;
  case Opcode::Sge:
    Out = RtValue(IntValue(1, jsx(a, W) >= jsx(b, W)));
    return true;
  default:
    return false;
  }
  Out = RtValue(IntValue(W, V));
  return true;
}

//===----------------------------------------------------------------------===//
// Generic evaluation, templated over the operand accessor
//===----------------------------------------------------------------------===//

namespace {

template <typename OpsT>
RtValue evalPureImpl(Opcode Op, const OpsT &Ops, size_t NumOps,
                     unsigned Imm, const Instruction *I) {
  // Scalar fast path: binary two-state ops on width <= 64 compute
  // directly on uint64_t, no word loops and no temporaries.
  if (NumOps == 2) {
    RtValue Fast;
    if (evalIntFast(Op, Ops[0], Ops[1], Fast))
      return Fast;
  }

  switch (Op) {
  case Opcode::ArrayCreate:
  case Opcode::StructCreate: {
    std::vector<RtValue> Elems;
    Elems.reserve(NumOps);
    for (size_t J = 0; J != NumOps; ++J)
      Elems.push_back(Ops[J]);
    return Op == Opcode::ArrayCreate
               ? RtValue::makeArray(std::move(Elems))
               : RtValue::makeStruct(std::move(Elems));
  }
  case Opcode::Neg:
    return RtValue(Ops[0].intValue().neg());
  case Opcode::Not:
    if (Ops[0].isLogic())
      return RtValue(Ops[0].logicValue().logicalNot());
    return RtValue(Ops[0].intValue().logicalNot());
  case Opcode::Add:
    return RtValue(Ops[0].intValue().add(Ops[1].intValue()));
  case Opcode::Sub:
    return RtValue(Ops[0].intValue().sub(Ops[1].intValue()));
  case Opcode::Mul:
    return RtValue(Ops[0].intValue().mul(Ops[1].intValue()));
  case Opcode::Udiv:
    return RtValue(Ops[0].intValue().udiv(Ops[1].intValue()));
  case Opcode::Sdiv:
    return RtValue(Ops[0].intValue().sdiv(Ops[1].intValue()));
  case Opcode::Umod:
  case Opcode::Urem:
    return RtValue(Ops[0].intValue().urem(Ops[1].intValue()));
  case Opcode::Smod:
    return RtValue(Ops[0].intValue().smod(Ops[1].intValue()));
  case Opcode::Srem:
    return RtValue(Ops[0].intValue().srem(Ops[1].intValue()));
  case Opcode::And:
    if (Ops[0].isLogic())
      return RtValue(Ops[0].logicValue().logicalAnd(Ops[1].logicValue()));
    return RtValue(Ops[0].intValue().logicalAnd(Ops[1].intValue()));
  case Opcode::Or:
    if (Ops[0].isLogic())
      return RtValue(Ops[0].logicValue().logicalOr(Ops[1].logicValue()));
    return RtValue(Ops[0].intValue().logicalOr(Ops[1].intValue()));
  case Opcode::Xor:
    if (Ops[0].isLogic())
      return RtValue(Ops[0].logicValue().logicalXor(Ops[1].logicValue()));
    return RtValue(Ops[0].intValue().logicalXor(Ops[1].intValue()));
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr: {
    uint64_t Amt = Ops[1].intValue().fitsU64()
                       ? Ops[1].intValue().zextToU64()
                       : ~uint64_t(0);
    const IntValue &A = Ops[0].intValue();
    unsigned S =
        Amt > A.width() ? A.width() : static_cast<unsigned>(Amt);
    if (Op == Opcode::Shl)
      return RtValue(A.shl(S));
    if (Op == Opcode::Shr)
      return RtValue(A.lshr(S));
    return RtValue(A.ashr(S));
  }
  case Opcode::Eq:
    return RtValue(IntValue(1, Ops[0] == Ops[1]));
  case Opcode::Neq:
    return RtValue(IntValue(1, Ops[0] != Ops[1]));
  case Opcode::Ult:
    return RtValue(IntValue(1, intOf(Ops[0]).ult(intOf(Ops[1]))));
  case Opcode::Ugt:
    return RtValue(IntValue(1, intOf(Ops[0]).ugt(intOf(Ops[1]))));
  case Opcode::Ule:
    return RtValue(IntValue(1, intOf(Ops[0]).ule(intOf(Ops[1]))));
  case Opcode::Uge:
    return RtValue(IntValue(1, intOf(Ops[0]).uge(intOf(Ops[1]))));
  case Opcode::Slt:
    return RtValue(IntValue(1, intOf(Ops[0]).slt(intOf(Ops[1]))));
  case Opcode::Sgt:
    return RtValue(IntValue(1, intOf(Ops[0]).sgt(intOf(Ops[1]))));
  case Opcode::Sle:
    return RtValue(IntValue(1, intOf(Ops[0]).sle(intOf(Ops[1]))));
  case Opcode::Sge:
    return RtValue(IntValue(1, intOf(Ops[0]).sge(intOf(Ops[1]))));
  case Opcode::Mux: {
    const auto &Elems = Ops[0].elements();
    uint64_t Idx = intOf(Ops[1]).fitsU64() ? intOf(Ops[1]).zextToU64()
                                           : Elems.size();
    if (Idx >= Elems.size())
      Idx = Elems.size() - 1; // Clamp, matching the const-fold rule.
    return Elems[Idx];
  }
  case Opcode::Zext: {
    unsigned W = I->type()->bitWidth();
    return RtValue(Ops[0].intValue().zext(W));
  }
  case Opcode::Sext: {
    unsigned W = I->type()->bitWidth();
    return RtValue(Ops[0].intValue().sext(W));
  }
  case Opcode::Trunc: {
    unsigned W = I->type()->bitWidth();
    return RtValue(Ops[0].intValue().trunc(W));
  }
  case Opcode::Insf: {
    // On a signal/pointer operand the caller handles it; here: values.
    RtValue R = Ops[0];
    R.elements()[Imm] = Ops[1];
    return R;
  }
  case Opcode::Extf: {
    if (Ops[0].isSignal())
      return RtValue(Ops[0].sigRef().element(Imm));
    return Ops[0].elements()[Imm];
  }
  case Opcode::Inss: {
    if (Ops[0].isInt())
      return RtValue(Ops[0].intValue().insertBits(Imm, Ops[1].intValue()));
    if (Ops[0].isLogic())
      return RtValue(
          Ops[0].logicValue().insertBits(Imm, Ops[1].logicValue()));
    // Array slice insert.
    RtValue R = Ops[0];
    const auto &Src = Ops[1].elements();
    for (unsigned J = 0; J != Src.size(); ++J)
      R.elements()[Imm + J] = Src[J];
    return R;
  }
  case Opcode::Exts: {
    if (Ops[0].isSignal()) {
      // Array-of-signal slices keep element granularity (a SigRef
      // element range); only int/logic slicing is bit-granular.
      Type *Inner = cast<SignalType>(I->type())->inner();
      if (Inner->isArray())
        return RtValue(Ops[0].sigRef().elements(
            Imm, cast<ArrayType>(Inner)->length()));
      return RtValue(Ops[0].sigRef().bits(Imm, Inner->bitWidth()));
    }
    if (Ops[0].isInt()) {
      unsigned W = I->type()->bitWidth();
      return RtValue(Ops[0].intValue().extractBits(Imm, W));
    }
    if (Ops[0].isLogic()) {
      unsigned W = I->type()->bitWidth();
      return RtValue(Ops[0].logicValue().extractBits(Imm, W));
    }
    // Array slice.
    const auto &Src = Ops[0].elements();
    unsigned Len = cast<ArrayType>(I->type())->length();
    std::vector<RtValue> Out(Src.begin() + Imm, Src.begin() + Imm + Len);
    return RtValue::makeArray(std::move(Out));
  }
  default:
    assert(false && "not a pure op");
    return RtValue();
  }
}

/// Operand accessors for the three engine calling conventions.
struct VecOps {
  const std::vector<RtValue> &V;
  const RtValue &operator[](size_t J) const { return V[J]; }
};
struct PtrOps {
  const RtValue *const *P;
  const RtValue &operator[](size_t J) const { return *P[J]; }
};
struct IdxOps {
  const RtValue *Base;
  const int32_t *Idx;
  const RtValue &operator[](size_t J) const { return Base[Idx[J]]; }
};

} // namespace

RtValue llhd::evalPure(Opcode Op, const std::vector<RtValue> &Ops,
                       unsigned Imm, const Instruction *I) {
  return evalPureImpl(Op, VecOps{Ops}, Ops.size(), Imm, I);
}

RtValue llhd::evalPureP(Opcode Op, const RtValue *const *OpPtrs,
                        size_t NumOps, unsigned Imm, const Instruction *I) {
  return evalPureImpl(Op, PtrOps{OpPtrs}, NumOps, Imm, I);
}

RtValue llhd::evalPureIdx(Opcode Op, const RtValue *Base,
                          const int32_t *Idx, size_t NumOps, unsigned Imm,
                          const Instruction *I) {
  return evalPureImpl(Op, IdxOps{Base, Idx}, NumOps, Imm, I);
}

RtValue llhd::readSubValue(const RtValue &V, const SigRef &Ref) {
  const RtValue *Cur = &V;
  for (uint32_t Idx : Ref.Path)
    Cur = &Cur->elements()[Idx];
  if (Ref.ElemOff >= 0) {
    const auto &Es = Cur->elements();
    std::vector<RtValue> Out(Es.begin() + Ref.ElemOff,
                             Es.begin() + Ref.ElemOff + Ref.ElemLen);
    return RtValue::makeArray(std::move(Out));
  }
  if (Ref.BitOff < 0)
    return *Cur;
  if (Cur->isInt())
    return RtValue(Cur->intValue().extractBits(Ref.BitOff, Ref.BitLen));
  return RtValue(Cur->logicValue().extractBits(Ref.BitOff, Ref.BitLen));
}

void llhd::writeSubValue(RtValue &V, const SigRef &Ref, const RtValue &Sub) {
  RtValue *Cur = &V;
  for (uint32_t Idx : Ref.Path)
    Cur = &Cur->elements()[Idx];
  if (Ref.ElemOff >= 0) {
    const auto &Src = Sub.elements();
    auto &Dst = Cur->elements();
    for (uint32_t J = 0; J != Ref.ElemLen; ++J)
      Dst[Ref.ElemOff + J] = Src[J];
    return;
  }
  if (Ref.BitOff < 0) {
    *Cur = Sub;
    return;
  }
  if (Cur->isInt())
    *Cur = RtValue(Cur->intValue().insertBits(Ref.BitOff, Sub.intValue()));
  else
    *Cur = RtValue(
        Cur->logicValue().insertBits(Ref.BitOff, Sub.logicValue()));
}

//===----------------------------------------------------------------------===//
// Intrinsics
//===----------------------------------------------------------------------===//

void llhd::intrinsicAssert(SimState &St, bool Ok) {
  if (!Ok)
    ++St.Stats.AssertFailures;
}

void llhd::intrinsicFinish(SimState &St) { St.FinishRequested = true; }

RtValue llhd::callIntrinsic(const Unit &Fn, const std::vector<RtValue> &Args,
                            const SimOptions &O, SimState &St) {
  const std::string &N = Fn.name();
  // Integer results take their width from the declared return type (i32
  // in practice).
  auto intResult = [&](uint64_t X) {
    return RtValue(
        IntValue(Fn.returnType() ? Fn.returnType()->bitWidth() : 32, X));
  };
  if (N == "llhd.assert") {
    intrinsicAssert(St, Args.empty() || Args[0].isTruthy());
    return RtValue();
  }
  if (N == "llhd.finish") {
    intrinsicFinish(St);
    return RtValue();
  }
  if (N == "llhd.random") // $random / $urandom: the seeded stream.
    return intResult(St.nextRandom());
  // Plusarg queries: the key is encoded in the intrinsic name by the
  // frontend (moore/Compiler.cpp), the values come from SimOptions.
  // Yields the value of the first `+key[=value]` ("" when bare), or null.
  auto plusarg = [&](const char *Pfx) -> const std::string * {
    for (const auto &[K, V] : O.Plusargs)
      if (N.compare(strlen(Pfx), std::string::npos, K) == 0)
        return &V;
    return nullptr;
  };
  constexpr const char *TestPfx = "llhd.plusarg.test.";
  constexpr const char *ValuePfx = "llhd.plusarg.value.";
  if (N.rfind(TestPfx, 0) == 0)
    return intResult(plusarg(TestPfx) ? 1 : 0);
  if (N.rfind(ValuePfx, 0) == 0) {
    // $plusarg$value("KEY", default): the plusarg's numeric value, or
    // the default when absent or non-numeric.
    uint64_t X = Args.empty() ? 0 : Args[0].intValue().zextToU64();
    if (const std::string *V = plusarg(ValuePfx)) {
      char *End = nullptr;
      uint64_t Parsed = strtoull(V->c_str(), &End, 0);
      if (End && End != V->c_str() && *End == '\0')
        X = Parsed;
    }
    return intResult(X);
  }
  return defaultValue(Fn.returnType());
}
