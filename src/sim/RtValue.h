//===- sim/RtValue.h - Runtime simulation values ----------------*- C++ -*-===//
//
// The dynamic values flowing through a simulation: two-state integers
// (also used for enums), nine-valued logic, times, aggregates, stack/heap
// pointers and sub-signal references. Both execution engines share this
// representation and the operation semantics in RtOps.h.
//
// RtValue is a tagged union of at most 32 bytes. Scalars — integers up to
// 64 bits, logic vectors up to 16 elements, times, pointers and
// whole-signal or bit-slice references — are stored inline, so the
// steady-state scalar data path never allocates. Aggregates, wider
// integers and logic vectors, and signal references with an element path
// live behind an owned heap pointer.
//
// Copy, move, assignment and destruction test one inline predicate,
// trivialPayload(): when the payload owns nothing they are plain word
// copies (or nothing at all); only heap payloads call out-of-line code.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_RTVALUE_H
#define LLHD_SIM_RTVALUE_H

#include "support/IntValue.h"
#include "support/LogicVec.h"
#include "support/Time.h"

#include <cstdint>
#include <string>
#include <vector>

namespace llhd {

/// Identifies one elaborated signal.
using SignalId = uint32_t;
constexpr SignalId InvalidSignal = ~SignalId(0);

/// A reference to (part of) a signal: an element path through aggregate
/// layers, then an optional element range (array slices, `exts` on
/// array-typed signals) or an optional bit range (int/logic slices),
/// produced by extf/exts on signals. A reference carries at most one of
/// the two ranges: a bit slice of an array slice is not constructible.
struct SigRef {
  SignalId Sig = InvalidSignal;
  std::vector<uint32_t> Path; ///< Aggregate element indices, outermost first.
  int32_t ElemOff = -1;       ///< -1: not an array slice.
  uint32_t ElemLen = 0;
  int32_t BitOff = -1;        ///< -1: whole element.
  uint32_t BitLen = 0;

  bool valid() const { return Sig != InvalidSignal; }
  bool wholeSignal() const {
    return Path.empty() && ElemOff < 0 && BitOff < 0;
  }

  /// Narrows this reference by an element index.
  SigRef element(uint32_t Index) const {
    SigRef R = *this;
    assert(R.BitOff < 0 && "cannot take an element of a bit slice");
    if (R.ElemOff >= 0) {
      // An element of an array slice is element ElemOff+Index of the
      // sliced array.
      assert(Index < R.ElemLen && "element outside the array slice");
      Index += R.ElemOff;
      R.ElemOff = -1;
      R.ElemLen = 0;
    }
    R.Path.push_back(Index);
    return R;
  }
  /// Narrows this reference by an element range (array slice).
  SigRef elements(uint32_t Off, uint32_t Len) const {
    SigRef R = *this;
    assert(R.BitOff < 0 && "cannot take elements of a bit slice");
    if (R.ElemOff >= 0) {
      assert(Off + Len <= R.ElemLen && "array slice out of range");
      R.ElemOff += Off;
      R.ElemLen = Len;
    } else {
      R.ElemOff = Off;
      R.ElemLen = Len;
    }
    return R;
  }
  /// Narrows this reference by a bit range.
  SigRef bits(uint32_t Off, uint32_t Len) const {
    SigRef R = *this;
    assert(R.ElemOff < 0 && "cannot take bits of an array slice");
    if (R.BitOff < 0) {
      R.BitOff = Off;
      R.BitLen = Len;
    } else {
      assert(Off + Len <= R.BitLen && "bit slice out of range");
      R.BitOff += Off;
      R.BitLen = Len;
    }
    return R;
  }

  bool operator==(const SigRef &RHS) const {
    return Sig == RHS.Sig && Path == RHS.Path && ElemOff == RHS.ElemOff &&
           ElemLen == RHS.ElemLen && BitOff == RHS.BitOff &&
           BitLen == RHS.BitLen;
  }
  bool operator<(const SigRef &RHS) const {
    if (Sig != RHS.Sig)
      return Sig < RHS.Sig;
    if (Path != RHS.Path)
      return Path < RHS.Path;
    if (ElemOff != RHS.ElemOff)
      return ElemOff < RHS.ElemOff;
    if (ElemLen != RHS.ElemLen)
      return ElemLen < RHS.ElemLen;
    if (BitOff != RHS.BitOff)
      return BitOff < RHS.BitOff;
    return BitLen < RHS.BitLen;
  }
};

/// One dynamic value.
class RtValue {
public:
  enum class Kind : uint8_t {
    Invalid,
    Int,     ///< iN and nN.
    Logic,   ///< lN.
    TimeVal, ///< time.
    Array,
    Struct,
    Pointer, ///< Index into the owning frame's memory cells.
    Signal,  ///< A SigRef.
  };

  RtValue() : K(Kind::Invalid) {}
  explicit RtValue(IntValue V) : K(Kind::Int), Boxed(!V.isInline()) {
    new (&IV) IntValue(std::move(V));
  }
  explicit RtValue(LogicVec V) : K(Kind::Logic), Boxed(!V.isInline()) {
    new (&LV) LogicVec(std::move(V));
  }
  explicit RtValue(Time T) : K(Kind::TimeVal) { TV = T; }
  explicit RtValue(SigRef S) : K(Kind::Signal) {
    // Inline storage covers a whole signal or a plain bit slice; refs
    // with a path or an element range are boxed.
    if (S.Path.empty() && S.ElemOff < 0) {
      Boxed = false;
      SRI.Sig = S.Sig;
      SRI.BitOff = S.BitOff;
      SRI.BitLen = S.BitLen;
    } else {
      Boxed = true;
      SRB = new SigRef(std::move(S));
    }
  }

  RtValue(const RtValue &RHS) {
    if (RHS.trivialPayload())
      rawCopy(RHS);
    else
      copyHeap(RHS);
  }
  /// Moves are plain word copies: heap payloads transfer ownership by
  /// pointer, inline payloads by value. The source is left Invalid.
  RtValue(RtValue &&RHS) noexcept {
    rawCopy(RHS);
    RHS.reset();
  }
  RtValue &operator=(const RtValue &RHS) {
    if (trivialPayload() && RHS.trivialPayload())
      rawCopy(RHS); // Also covers self-assignment.
    else if (this != &RHS)
      assignHeap(RHS);
    return *this;
  }
  RtValue &operator=(RtValue &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    if (!trivialPayload())
      destroyHeap();
    rawCopy(RHS);
    RHS.reset();
    return *this;
  }
  ~RtValue() {
    if (!trivialPayload())
      destroyHeap();
  }

  /// Makes this value the integer of \p W <= 64 bits holding the low W
  /// bits of \p Word, in place: the word path of the interpreter's
  /// evaluator (RtOps.h). A heap payload is released first.
  void setWord(unsigned W, uint64_t Word) {
    if (!trivialPayload())
      destroyHeap();
    K = Kind::Int;
    Boxed = false;
    new (&IV) IntValue(IntValue::makeInline(W, Word));
  }

  /// True when the payload owns no heap memory: invalid, times,
  /// pointers, integers of at most 64 bits, logic vectors of at most 16
  /// elements and inline signal references. Such values copy as words
  /// and need no destruction.
  bool trivialPayload() const { return !Boxed; }

  static RtValue makeArray(std::vector<RtValue> Elems) {
    RtValue V;
    V.K = Kind::Array;
    V.Boxed = true;
    V.Agg = new std::vector<RtValue>(std::move(Elems));
    return V;
  }
  static RtValue makeStruct(std::vector<RtValue> Fields) {
    RtValue V;
    V.K = Kind::Struct;
    V.Boxed = true;
    V.Agg = new std::vector<RtValue>(std::move(Fields));
    return V;
  }
  static RtValue makePointer(uint32_t Cell) {
    RtValue V;
    V.K = Kind::Pointer;
    V.Ptr = Cell;
    return V;
  }

  Kind kind() const { return K; }
  bool isInvalid() const { return K == Kind::Invalid; }
  bool isInt() const { return K == Kind::Int; }
  bool isLogic() const { return K == Kind::Logic; }
  bool isTime() const { return K == Kind::TimeVal; }
  bool isAggregate() const { return K == Kind::Array || K == Kind::Struct; }
  bool isSignal() const { return K == Kind::Signal; }
  bool isPointer() const { return K == Kind::Pointer; }

  const IntValue &intValue() const {
    assert(isInt() && "not an integer value");
    return IV;
  }
  /// The word of an integer of at most 64 bits, for in-place updates
  /// (SignalTable::writeWord); the caller keeps the bits above the width
  /// zero.
  uint64_t &inlineWord() {
    assert(isInt() && "not an integer value");
    return IV.inlineWord();
  }
  const LogicVec &logicValue() const {
    assert(isLogic() && "not a logic value");
    return LV;
  }
  const Time &timeValue() const {
    assert(isTime() && "not a time value");
    return TV;
  }
  /// Materialises the signal reference. Whole-signal references (the
  /// common case) are stored inline and produce no allocation.
  SigRef sigRef() const {
    assert(isSignal() && "not a signal reference");
    if (Boxed)
      return *SRB;
    SigRef R;
    R.Sig = SRI.Sig;
    R.BitOff = SRI.BitOff;
    R.BitLen = SRI.BitLen;
    return R;
  }
  /// The referenced signal id without materialising a SigRef.
  SignalId sigId() const {
    assert(isSignal() && "not a signal reference");
    return Boxed ? SRB->Sig : SRI.Sig;
  }
  /// True for a reference to a whole signal (no path, range or slice).
  bool isWholeSignal() const {
    return isSignal() && !Boxed && SRI.BitOff < 0;
  }
  uint32_t pointer() const {
    assert(isPointer() && "not a pointer");
    return Ptr;
  }
  const std::vector<RtValue> &elements() const {
    assert(isAggregate() && "not an aggregate");
    return *Agg;
  }
  std::vector<RtValue> &elements() {
    assert(isAggregate() && "not an aggregate");
    return *Agg;
  }

  /// The boolean interpretation of an i1 (or l1) value.
  bool isTruthy() const {
    if (K == Kind::Int && !Boxed)
      return IV.zextToU64() != 0;
    return isTruthySlow();
  }

  bool operator==(const RtValue &RHS) const;
  bool operator!=(const RtValue &RHS) const { return !(*this == RHS); }

  /// Renders for traces and diagnostics, e.g. "42", "4'b01XZ", "[1, 2]".
  std::string toString() const;

private:
  bool isTruthySlow() const;
  /// Out-of-line halves of the special members, for heap payloads only.
  void destroyHeap();
  void copyHeap(const RtValue &RHS);
  void assignHeap(const RtValue &RHS);

  /// Leaves a moved-from value Invalid, owning nothing.
  void reset() {
    K = Kind::Invalid;
    Boxed = false;
  }
  /// Bitwise payload adoption: the whole copy of a trivial payload, and
  /// the ownership transfer of a move (the caller then reset()s RHS).
  void rawCopy(const RtValue &RHS) {
    K = RHS.K;
    Boxed = RHS.Boxed;
    Raw = RHS.Raw;
  }

  struct RawBytes {
    uint64_t A, B;
  };
  struct InlineSigRef {
    SignalId Sig;
    int32_t BitOff;
    uint32_t BitLen;
  };

  Kind K;
  /// The payload owns heap memory: a wider integer or logic vector, an
  /// aggregate, or a boxed signal reference (SRB rather than SRI).
  bool Boxed = false;
  union {
    IntValue IV;
    LogicVec LV;
    Time TV;
    uint32_t Ptr;
    InlineSigRef SRI;
    SigRef *SRB;
    std::vector<RtValue> *Agg;
    RawBytes Raw;
  };
};

static_assert(sizeof(RtValue) <= 32,
              "scalar RtValue must stay within 32 bytes");

} // namespace llhd

#endif // LLHD_SIM_RTVALUE_H
