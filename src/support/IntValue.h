//===- support/IntValue.h - Arbitrary-width two-state integers --*- C++ -*-===//
//
// Arbitrary-precision fixed-width integers for LLHD `iN` values, modelled
// after llvm::APInt but self-contained. Values are stored as little-endian
// 64-bit words; bits above the declared width are kept zero (canonical form).
//
// Small-size optimization: widths up to 64 bits — the overwhelming majority
// of RTL values — live in one inline word, so constructing, copying and
// operating on them never touches the heap. Wider values keep their words
// in a heap array sized exactly for the width. Every operation takes a
// branch-light single-word fast path when the width fits one word.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SUPPORT_INTVALUE_H
#define LLHD_SUPPORT_INTVALUE_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace llhd {

/// An immutable-width, mutable-value integer of an arbitrary bit width.
///
/// All arithmetic wraps modulo 2^width, like hardware. Signedness is a
/// property of the operation (sdiv vs udiv), not of the value.
class IntValue {
public:
  /// Builds the zero value of width 0. Mostly useful as a placeholder.
  IntValue() : Width(0), Word(0) {}

  /// Builds a value of \p Width bits from the low bits of \p Value.
  explicit IntValue(unsigned Width, uint64_t Value = 0) : Width(Width) {
    if (isInline()) {
      Word = Value & maskOf(Width);
    } else {
      Ptr = new uint64_t[numWords()]();
      Ptr[0] = Value;
    }
  }

  /// Builds a value from explicit words (little-endian).
  IntValue(unsigned Width, const std::vector<uint64_t> &Ws);

  IntValue(const IntValue &RHS) : Width(RHS.Width) {
    if (isInline()) {
      Word = RHS.Word;
    } else {
      Ptr = new uint64_t[numWords()];
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
    }
  }
  IntValue(IntValue &&RHS) noexcept : Width(RHS.Width), Word(RHS.Word) {
    RHS.Width = 0;
    RHS.Word = 0;
  }
  IntValue &operator=(const IntValue &RHS) {
    if (this == &RHS)
      return *this;
    if (!isInline() && !RHS.isInline() && numWords() == RHS.numWords()) {
      // Reuse the existing allocation when the word counts match.
      Width = RHS.Width;
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
      return *this;
    }
    if (!isInline())
      delete[] Ptr;
    Width = RHS.Width;
    if (isInline()) {
      Word = RHS.Word;
    } else {
      Ptr = new uint64_t[numWords()];
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
    }
    return *this;
  }
  IntValue &operator=(IntValue &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    if (!isInline())
      delete[] Ptr;
    Width = RHS.Width;
    Word = RHS.Word;
    RHS.Width = 0;
    RHS.Word = 0;
    return *this;
  }
  ~IntValue() {
    if (!isInline())
      delete[] Ptr;
  }

  /// Parses a decimal (optionally negative) or, with prefix "0x"/"0b",
  /// hexadecimal/binary literal. Returns the value truncated to \p Width.
  static IntValue fromString(unsigned Width, const std::string &Str);

  /// All-ones value of the given width.
  static IntValue allOnes(unsigned Width);

  unsigned width() const { return Width; }
  /// True if the words live in the inline storage (width <= 64).
  bool isInline() const { return Width <= 64; }
  unsigned numWords() const { return Width <= 64 ? 1 : (Width + 63) / 64; }
  uint64_t word(unsigned I) const {
    return I < numWords() ? words()[I] : 0;
  }

  /// Returns the low 64 bits.
  uint64_t zextToU64() const { return isInline() ? Word : Ptr[0]; }
  /// The word of a value of at most 64 bits, for in-place updates; the
  /// caller keeps the bits above the width zero.
  uint64_t &inlineWord() {
    assert(isInline() && "value does not fit one word");
    return Word;
  }
  /// Returns the value sign-extended into an int64_t (width clamped to 64).
  int64_t sextToI64() const;

  bool isZero() const;
  bool isAllOnes() const;
  /// True if the (unsigned) value fits in 64 bits.
  bool fitsU64() const;

  bool bit(unsigned I) const {
    assert(I < Width && "bit index out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }
  void setBit(unsigned I, bool V);

  /// Sign bit (most significant bit); false for width 0.
  bool signBit() const { return Width != 0 && bit(Width - 1); }

  //===------------------------------------------------------------------===//
  // Arithmetic (all results have the same width as *this; operands must
  // match widths).
  //===------------------------------------------------------------------===//

  IntValue add(const IntValue &RHS) const;
  IntValue sub(const IntValue &RHS) const;
  IntValue mul(const IntValue &RHS) const;
  /// Unsigned division; division by zero yields all-ones (like X-prop'd HW).
  IntValue udiv(const IntValue &RHS) const;
  IntValue urem(const IntValue &RHS) const;
  IntValue sdiv(const IntValue &RHS) const;
  IntValue srem(const IntValue &RHS) const;
  /// Modulo with the sign of the divisor (LLHD `mod`); `rem` has the sign
  /// of the dividend.
  IntValue smod(const IntValue &RHS) const;
  IntValue neg() const;

  IntValue logicalAnd(const IntValue &RHS) const;
  IntValue logicalOr(const IntValue &RHS) const;
  IntValue logicalXor(const IntValue &RHS) const;
  IntValue logicalNot() const;

  /// Shifts; the amount is an ordinary unsigned number.
  IntValue shl(unsigned Amount) const;
  IntValue lshr(unsigned Amount) const;
  IntValue ashr(unsigned Amount) const;

  //===------------------------------------------------------------------===//
  // Comparisons.
  //===------------------------------------------------------------------===//

  bool eq(const IntValue &RHS) const {
    if (numWords() != RHS.numWords())
      return false;
    if (isInline())
      return Word == RHS.Word;
    return std::memcmp(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t)) == 0;
  }
  bool ult(const IntValue &RHS) const;
  bool slt(const IntValue &RHS) const;
  bool ule(const IntValue &RHS) const { return !RHS.ult(*this); }
  bool sle(const IntValue &RHS) const { return !RHS.slt(*this); }
  bool ugt(const IntValue &RHS) const { return RHS.ult(*this); }
  bool sgt(const IntValue &RHS) const { return RHS.slt(*this); }
  bool uge(const IntValue &RHS) const { return !ult(RHS); }
  bool sge(const IntValue &RHS) const { return !slt(RHS); }

  bool operator==(const IntValue &RHS) const {
    return Width == RHS.Width && eq(RHS);
  }
  bool operator!=(const IntValue &RHS) const { return !(*this == RHS); }

  //===------------------------------------------------------------------===//
  // Width changes and bit slicing.
  //===------------------------------------------------------------------===//

  IntValue zext(unsigned NewWidth) const;
  IntValue sext(unsigned NewWidth) const;
  IntValue trunc(unsigned NewWidth) const;
  /// zext or trunc to \p NewWidth, whichever applies.
  IntValue zextOrTrunc(unsigned NewWidth) const;

  /// Extracts \p Length bits starting at bit \p Offset.
  IntValue extractBits(unsigned Offset, unsigned Length) const;
  /// Returns a copy with \p Src inserted at bit \p Offset.
  IntValue insertBits(unsigned Offset, const IntValue &Src) const;

  /// Number of one bits.
  unsigned popCount() const;
  /// Number of leading (most-significant) zero bits.
  unsigned countLeadingZeros() const;

  /// Renders as decimal (unsigned).
  std::string toString() const;
  /// Renders as hexadecimal with "0x" prefix.
  std::string toHexString() const;

  /// Hash for use in unordered containers.
  size_t hash() const;

  /// The mask of live bits in the top word of a \p W-bit value (all ones
  /// for W a multiple of 64; width 0 masks to nothing).
  static uint64_t maskOf(unsigned W) {
    unsigned Rem = W % 64;
    if (Rem == 0)
      return W == 0 ? 0 : ~uint64_t(0);
    return ~uint64_t(0) >> (64 - Rem);
  }

  /// The value of \p W <= 64 bits holding the low W bits of \p Value:
  /// the constructor without the heap branch.
  static IntValue makeInline(unsigned W, uint64_t Value) {
    assert(W <= 64 && "inline value wider than one word");
    return IntValue(InlineTag{}, W, Value);
  }

private:
  struct InlineTag {};
  IntValue(InlineTag, unsigned W, uint64_t Value)
      : Width(W), Word(Value & maskOf(W)) {}

  const uint64_t *words() const { return isInline() ? &Word : Ptr; }
  uint64_t *words() { return isInline() ? &Word : Ptr; }

  void clearUnusedBits() { words()[numWords() - 1] &= maskOf(Width); }

  unsigned Width;
  union {
    uint64_t Word;  ///< Width <= 64 (also width 0).
    uint64_t *Ptr;  ///< Width > 64: numWords() heap words.
  };
};

} // namespace llhd

#endif // LLHD_SUPPORT_INTVALUE_H
