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

unsigned llhd::pureResultWidth(const Instruction &I) {
  switch (I.opcode()) {
  case Opcode::Zext:
  case Opcode::Sext:
  case Opcode::Trunc:
    return I.type()->bitWidth();
  case Opcode::Exts:
    return I.type()->isInt() || I.type()->isLogic() ? I.type()->bitWidth()
                                                    : 0;
  default:
    return 0;
  }
}

RtValue llhd::evalPure(Opcode Op, const std::vector<RtValue> &Ops,
                       unsigned Imm, const Instruction *I) {
  unsigned Width = I ? pureResultWidth(*I) : 0;
  RtValue R;
  if ((Ops.size() == 1 || Ops.size() == 2) &&
      evalIntFast(Op, Ops[0], Ops.size() == 2 ? &Ops[1] : nullptr, Imm,
                  Width, R))
    return R;
  std::vector<int32_t> Idx(Ops.size());
  for (size_t J = 0; J != Idx.size(); ++J)
    Idx[J] = static_cast<int32_t>(J);
  return evalPureWide(Op, Ops.data(), Idx.data(), Ops.size(), Imm, Width,
                      I);
}

bool llhd::insertInPlace(Opcode Op, const RtValue &Agg, const RtValue &V,
                         unsigned Imm, RtValue &Dst) {
  if ((Op != Opcode::Insf && Op != Opcode::Inss) || !Agg.isAggregate())
    return false;
  Dst = Agg;
  std::vector<RtValue> &Es = Dst.elements();
  if (Op == Opcode::Insf) {
    Es[Imm] = V;
    return true;
  }
  const std::vector<RtValue> &Src = V.elements();
  for (unsigned J = 0; J != Src.size(); ++J)
    Es[Imm + J] = Src[J];
  return true;
}

RtValue llhd::evalPureWide(Opcode Op, const RtValue *Base,
                           const int32_t *Idx, size_t NumOps, unsigned Imm,
                           unsigned Width, const Instruction *I) {
  auto Ops = [&](size_t J) -> const RtValue & { return Base[Idx[J]]; };
  switch (Op) {
  case Opcode::ArrayCreate:
  case Opcode::StructCreate: {
    std::vector<RtValue> Elems;
    Elems.reserve(NumOps);
    for (size_t J = 0; J != NumOps; ++J)
      Elems.push_back(Ops(J));
    return Op == Opcode::ArrayCreate
               ? RtValue::makeArray(std::move(Elems))
               : RtValue::makeStruct(std::move(Elems));
  }
  case Opcode::Neg:
    return RtValue(Ops(0).intValue().neg());
  case Opcode::Not:
    if (Ops(0).isLogic())
      return RtValue(Ops(0).logicValue().logicalNot());
    return RtValue(Ops(0).intValue().logicalNot());
  case Opcode::Add:
    return RtValue(Ops(0).intValue().add(Ops(1).intValue()));
  case Opcode::Sub:
    return RtValue(Ops(0).intValue().sub(Ops(1).intValue()));
  case Opcode::Mul:
    return RtValue(Ops(0).intValue().mul(Ops(1).intValue()));
  case Opcode::Udiv:
    return RtValue(Ops(0).intValue().udiv(Ops(1).intValue()));
  case Opcode::Sdiv:
    return RtValue(Ops(0).intValue().sdiv(Ops(1).intValue()));
  case Opcode::Umod:
  case Opcode::Urem:
    return RtValue(Ops(0).intValue().urem(Ops(1).intValue()));
  case Opcode::Smod:
    return RtValue(Ops(0).intValue().smod(Ops(1).intValue()));
  case Opcode::Srem:
    return RtValue(Ops(0).intValue().srem(Ops(1).intValue()));
  case Opcode::And:
    if (Ops(0).isLogic())
      return RtValue(Ops(0).logicValue().logicalAnd(Ops(1).logicValue()));
    return RtValue(Ops(0).intValue().logicalAnd(Ops(1).intValue()));
  case Opcode::Or:
    if (Ops(0).isLogic())
      return RtValue(Ops(0).logicValue().logicalOr(Ops(1).logicValue()));
    return RtValue(Ops(0).intValue().logicalOr(Ops(1).intValue()));
  case Opcode::Xor:
    if (Ops(0).isLogic())
      return RtValue(Ops(0).logicValue().logicalXor(Ops(1).logicValue()));
    return RtValue(Ops(0).intValue().logicalXor(Ops(1).intValue()));
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr: {
    uint64_t Amt = Ops(1).intValue().fitsU64()
                       ? Ops(1).intValue().zextToU64()
                       : ~uint64_t(0);
    const IntValue &A = Ops(0).intValue();
    unsigned S =
        Amt > A.width() ? A.width() : static_cast<unsigned>(Amt);
    if (Op == Opcode::Shl)
      return RtValue(A.shl(S));
    if (Op == Opcode::Shr)
      return RtValue(A.lshr(S));
    return RtValue(A.ashr(S));
  }
  case Opcode::Eq:
    return RtValue(IntValue(1, Ops(0) == Ops(1)));
  case Opcode::Neq:
    return RtValue(IntValue(1, Ops(0) != Ops(1)));
  case Opcode::Ult:
    return RtValue(IntValue(1, intOf(Ops(0)).ult(intOf(Ops(1)))));
  case Opcode::Ugt:
    return RtValue(IntValue(1, intOf(Ops(0)).ugt(intOf(Ops(1)))));
  case Opcode::Ule:
    return RtValue(IntValue(1, intOf(Ops(0)).ule(intOf(Ops(1)))));
  case Opcode::Uge:
    return RtValue(IntValue(1, intOf(Ops(0)).uge(intOf(Ops(1)))));
  case Opcode::Slt:
    return RtValue(IntValue(1, intOf(Ops(0)).slt(intOf(Ops(1)))));
  case Opcode::Sgt:
    return RtValue(IntValue(1, intOf(Ops(0)).sgt(intOf(Ops(1)))));
  case Opcode::Sle:
    return RtValue(IntValue(1, intOf(Ops(0)).sle(intOf(Ops(1)))));
  case Opcode::Sge:
    return RtValue(IntValue(1, intOf(Ops(0)).sge(intOf(Ops(1)))));
  case Opcode::Mux: {
    const auto &Elems = Ops(0).elements();
    uint64_t Idx = intOf(Ops(1)).fitsU64() ? intOf(Ops(1)).zextToU64()
                                           : Elems.size();
    if (Idx >= Elems.size())
      Idx = Elems.size() - 1; // Clamp, matching the const-fold rule.
    return Elems[Idx];
  }
  case Opcode::Zext:
    return RtValue(Ops(0).intValue().zext(Width));
  case Opcode::Sext:
    return RtValue(Ops(0).intValue().sext(Width));
  case Opcode::Trunc:
    return RtValue(Ops(0).intValue().trunc(Width));
  case Opcode::Insf: {
    // On a signal/pointer operand the caller handles it; here: values.
    RtValue R;
    [[maybe_unused]] bool Ok = insertInPlace(Op, Ops(0), Ops(1), Imm, R);
    assert(Ok && "insertion into a non-aggregate");
    return R;
  }
  case Opcode::Extf: {
    if (Ops(0).isSignal())
      return RtValue(Ops(0).sigRef().element(Imm));
    return Ops(0).elements()[Imm];
  }
  case Opcode::Inss: {
    if (Ops(0).isInt())
      return RtValue(Ops(0).intValue().insertBits(Imm, Ops(1).intValue()));
    if (Ops(0).isLogic())
      return RtValue(
          Ops(0).logicValue().insertBits(Imm, Ops(1).logicValue()));
    // Array slice insert.
    RtValue R;
    [[maybe_unused]] bool Ok = insertInPlace(Op, Ops(0), Ops(1), Imm, R);
    assert(Ok && "insertion into a non-aggregate");
    return R;
  }
  case Opcode::Exts: {
    if (Ops(0).isSignal()) {
      // Array-of-signal slices keep element granularity (a SigRef
      // element range); only int/logic slicing is bit-granular.
      Type *Inner = cast<SignalType>(I->type())->inner();
      if (Inner->isArray())
        return RtValue(Ops(0).sigRef().elements(
            Imm, cast<ArrayType>(Inner)->length()));
      return RtValue(Ops(0).sigRef().bits(Imm, Inner->bitWidth()));
    }
    if (Ops(0).isInt())
      return RtValue(Ops(0).intValue().extractBits(Imm, Width));
    if (Ops(0).isLogic())
      return RtValue(Ops(0).logicValue().extractBits(Imm, Width));
    // Array slice.
    const auto &Src = Ops(0).elements();
    unsigned Len = cast<ArrayType>(I->type())->length();
    std::vector<RtValue> Out(Src.begin() + Imm, Src.begin() + Imm + Len);
    return RtValue::makeArray(std::move(Out));
  }
  default:
    assert(false && "not a pure op");
    return RtValue();
  }
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

namespace {
constexpr const char *TestPfx = "llhd.plusarg.test.";
constexpr const char *ValuePfx = "llhd.plusarg.value.";
} // namespace

IntrinsicKind llhd::intrinsicKind(const Unit &Fn) {
  if (!Fn.isIntrinsic() && !Fn.isDeclaration())
    return IntrinsicKind::None;
  const std::string &N = Fn.name();
  if (N == "llhd.assert")
    return IntrinsicKind::Assert;
  if (N == "llhd.finish")
    return IntrinsicKind::Finish;
  if (N == "llhd.random")
    return IntrinsicKind::Random;
  if (N.rfind(TestPfx, 0) == 0)
    return IntrinsicKind::PlusargTest;
  if (N.rfind(ValuePfx, 0) == 0)
    return IntrinsicKind::PlusargValue;
  return IntrinsicKind::Other;
}

RtValue llhd::callIntrinsic(IntrinsicKind K, const Unit &Fn,
                            const std::vector<RtValue> &Args,
                            const SimOptions &O, SimState &St) {
  const std::string &N = Fn.name();
  // Integer results take their width from the declared return type (i32
  // in practice).
  auto intResult = [&](uint64_t X) {
    return RtValue(
        IntValue(Fn.returnType() ? Fn.returnType()->bitWidth() : 32, X));
  };
  // Plusarg queries: the key is encoded in the intrinsic name by the
  // frontend (moore/Compiler.cpp), the values come from SimOptions.
  // Yields the value of the first `+key[=value]` ("" when bare), or null.
  auto plusarg = [&](const char *Pfx) -> const std::string * {
    for (const auto &[Key, V] : O.Plusargs)
      if (N.compare(strlen(Pfx), std::string::npos, Key) == 0)
        return &V;
    return nullptr;
  };
  switch (K) {
  case IntrinsicKind::Assert:
    intrinsicAssert(St, Args.empty() || Args[0].isTruthy());
    return RtValue();
  case IntrinsicKind::Finish:
    intrinsicFinish(St);
    return RtValue();
  case IntrinsicKind::Random: // $random / $urandom: the seeded stream.
    return intResult(St.nextRandom());
  case IntrinsicKind::PlusargTest:
    return intResult(plusarg(TestPfx) ? 1 : 0);
  case IntrinsicKind::PlusargValue: {
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
  default:
    return defaultValue(Fn.returnType());
  }
}
