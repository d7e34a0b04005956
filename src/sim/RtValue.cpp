//===- sim/RtValue.cpp - Runtime simulation values --------------------------===//

#include "sim/RtValue.h"

#include <algorithm>

using namespace llhd;

void RtValue::destroyHeap() {
  switch (K) {
  case Kind::Int:
    IV.~IntValue();
    break;
  case Kind::Logic:
    LV.~LogicVec();
    break;
  case Kind::Array:
  case Kind::Struct:
    delete Agg;
    break;
  case Kind::Signal:
    delete SRB;
    break;
  default:
    break;
  }
}

void RtValue::copyHeap(const RtValue &RHS) {
  // The tag is written last, so a throwing allocation leaves this value
  // trivial and safe to destroy.
  switch (RHS.K) {
  case Kind::Int:
    new (&IV) IntValue(RHS.IV);
    break;
  case Kind::Logic:
    new (&LV) LogicVec(RHS.LV);
    break;
  case Kind::Array:
  case Kind::Struct:
    Agg = new std::vector<RtValue>(*RHS.Agg);
    break;
  case Kind::Signal:
    SRB = new SigRef(*RHS.SRB);
    break;
  default:
    Raw = RHS.Raw;
    break;
  }
  K = RHS.K;
  Boxed = RHS.Boxed;
}

void RtValue::assignHeap(const RtValue &RHS) {
  // Wide integers and logic vectors reuse their words in place.
  if (K == RHS.K && Boxed && RHS.Boxed) {
    if (K == Kind::Int) {
      IV = RHS.IV;
      return;
    }
    if (K == Kind::Logic) {
      LV = RHS.LV;
      return;
    }
    // An aggregate reuses its element buffer when no element owns heap
    // memory: RHS, an aggregate itself, then cannot live inside it.
    if ((K == Kind::Array || K == Kind::Struct) &&
        std::all_of(Agg->begin(), Agg->end(), [](const RtValue &E) {
          return E.trivialPayload();
        })) {
      *Agg = *RHS.Agg;
      return;
    }
  }
  if (trivialPayload()) {
    copyHeap(RHS);
    return;
  }
  // Copy before releasing: RHS may live inside this value's payload.
  RtValue Tmp(RHS);
  *this = std::move(Tmp);
}

bool RtValue::isTruthySlow() const {
  if (isInt())
    return !IV.isZero();
  if (isLogic())
    return LV.toIntValue().zextToU64() != 0;
  assert(false && "truthiness of a non-scalar value");
  return false;
}

bool RtValue::operator==(const RtValue &RHS) const {
  if (K != RHS.K)
    return false;
  switch (K) {
  case Kind::Invalid:
    return true;
  case Kind::Int:
    return IV == RHS.IV;
  case Kind::Logic:
    return LV == RHS.LV;
  case Kind::TimeVal:
    return TV == RHS.TV;
  case Kind::Pointer:
    return Ptr == RHS.Ptr;
  case Kind::Signal:
    if (Boxed || RHS.Boxed)
      return sigRef() == RHS.sigRef();
    return SRI.Sig == RHS.SRI.Sig && SRI.BitOff == RHS.SRI.BitOff &&
           SRI.BitLen == RHS.SRI.BitLen;
  case Kind::Array:
  case Kind::Struct:
    return *Agg == *RHS.Agg;
  }
  return false;
}

std::string RtValue::toString() const {
  switch (K) {
  case Kind::Invalid:
    return "<invalid>";
  case Kind::Int:
    return IV.toString();
  case Kind::Logic:
    return std::to_string(LV.width()) + "'b" + LV.toString();
  case Kind::TimeVal:
    return TV.toString();
  case Kind::Pointer:
    return "ptr:" + std::to_string(Ptr);
  case Kind::Signal:
    return "sig:" + std::to_string(sigId());
  case Kind::Array:
  case Kind::Struct: {
    std::string S = K == Kind::Array ? "[" : "{";
    const std::vector<RtValue> &Es = *Agg;
    for (unsigned I = 0; I != Es.size(); ++I) {
      if (I != 0)
        S += ", ";
      S += Es[I].toString();
    }
    return S + (K == Kind::Array ? "]" : "}");
  }
  }
  return "";
}
