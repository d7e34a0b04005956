//===- tests/sim/RtOpsTest.cpp - Fast-path vs wide-path equivalence -------===//
//
// RtOps routes width <= 64 two-state operations through a uint64_t fast
// path (evalIntFast, in place) and wider ones through the IntValue word
// loops (evalPureWide). This test checks both against an independent
// bit-level reference model on randomized widths 1..128, so the two paths
// are bit-identical by construction: the same opcode and operand bits
// must produce the same result bits no matter which side of the 64-bit
// boundary the width falls on. It also holds the in-place path to the
// wide path directly, for every opcode it takes, on widths 1..64 and
// over destinations of every kind, and holds the LIR's word opcodes
// (as lowering decodes them), run by each of the interpreter's dispatch
// loops, to the wide path on the boundary widths. The same model checks
// jit/Prelude.h's helpers directly, which the fast path and every native
// unit call.
//
//===----------------------------------------------------------------------===//

#include "ir/Context.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Instruction.h"
#include "sim/Interp.h"
#include "sim/Lir.h"
#include "sim/RtOps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

// The helpers native units run, by themselves.
namespace native {
#define LLHD_JIT_ENGINE
#include "jit/Prelude.h"
} // namespace native

using namespace llhd;

namespace {

/// Little-endian bit vector, the reference representation.
using Bits = std::vector<int>;

Bits toBits(const IntValue &V) {
  Bits B(V.width());
  for (unsigned I = 0; I != V.width(); ++I)
    B[I] = V.bit(I);
  return B;
}

IntValue fromBits(const Bits &B) {
  IntValue V(B.size(), 0);
  for (unsigned I = 0; I != B.size(); ++I)
    V.setBit(I, B[I]);
  return V;
}

Bits refNot(const Bits &A) {
  Bits R(A.size());
  for (size_t I = 0; I != A.size(); ++I)
    R[I] = !A[I];
  return R;
}

Bits refAdd(const Bits &A, const Bits &B) {
  Bits R(A.size());
  int Carry = 0;
  for (size_t I = 0; I != A.size(); ++I) {
    int S = A[I] + B[I] + Carry;
    R[I] = S & 1;
    Carry = S >> 1;
  }
  return R;
}

Bits refNeg(const Bits &A) {
  Bits One(A.size(), 0);
  if (!One.empty())
    One[0] = 1;
  return refAdd(refNot(A), One);
}

Bits refSub(const Bits &A, const Bits &B) { return refAdd(A, refNeg(B)); }

Bits refShl(const Bits &A, unsigned S) {
  Bits R(A.size(), 0);
  for (size_t I = S; I < A.size(); ++I)
    R[I] = A[I - S];
  return R;
}

Bits refShr(const Bits &A, unsigned S) {
  Bits R(A.size(), 0);
  for (size_t I = 0; I + S < A.size(); ++I)
    R[I] = A[I + S];
  return R;
}

Bits refAshr(const Bits &A, unsigned S) {
  Bits R(A.size(), A.empty() ? 0 : A.back());
  for (size_t I = 0; I + S < A.size(); ++I)
    R[I] = A[I + S];
  return R;
}

Bits refMul(const Bits &A, const Bits &B) {
  Bits R(A.size(), 0);
  for (size_t I = 0; I != B.size(); ++I)
    if (B[I])
      R = refAdd(R, refShl(A, I));
  return R;
}

/// Unsigned compare: -1, 0, 1.
int refCmpU(const Bits &A, const Bits &B) {
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

int refCmpS(const Bits &A, const Bits &B) {
  int SA = A.empty() ? 0 : A.back(), SB = B.empty() ? 0 : B.back();
  if (SA != SB)
    return SA ? -1 : 1;
  return refCmpU(A, B);
}

bool refIsZero(const Bits &A) {
  for (int X : A)
    if (X)
      return false;
  return true;
}

/// Restoring long division; quotient and remainder.
void refUdivRem(const Bits &A, const Bits &B, Bits &Q, Bits &R) {
  Q.assign(A.size(), 0);
  R.assign(A.size(), 0);
  if (refIsZero(B)) {
    Q.assign(A.size(), 1); // Division by zero: all-ones.
    R = A;
    return;
  }
  for (size_t I = A.size(); I-- > 0;) {
    // R = (R << 1) | A[I].
    for (size_t J = R.size(); J-- > 1;)
      R[J] = R[J - 1];
    R[0] = A[I];
    if (refCmpU(R, B) >= 0) {
      R = refSub(R, B);
      Q[I] = 1;
    }
  }
}

Bits refSdiv(const Bits &A, const Bits &B) {
  if (refIsZero(B))
    return Bits(A.size(), 1); // Division by zero: all-ones, signs ignored.
  bool NA = !A.empty() && A.back(), NB = !B.empty() && B.back();
  Bits UA = NA ? refNeg(A) : A, UB = NB ? refNeg(B) : B;
  Bits Q, R;
  refUdivRem(UA, UB, Q, R);
  return NA != NB ? refNeg(Q) : Q;
}

Bits refSrem(const Bits &A, const Bits &B) {
  if (refIsZero(B))
    return A;
  bool NA = !A.empty() && A.back(), NB = !B.empty() && B.back();
  Bits UA = NA ? refNeg(A) : A, UB = NB ? refNeg(B) : B;
  Bits Q, R;
  refUdivRem(UA, UB, Q, R);
  return NA ? refNeg(R) : R;
}

Bits refSmod(const Bits &A, const Bits &B) {
  Bits R = refSrem(A, B);
  if (refIsZero(R))
    return R;
  bool SR = !R.empty() && R.back(), SB = !B.empty() && B.back();
  if (SR == SB)
    return R;
  return refAdd(R, B);
}

RtValue evalBin(Opcode Op, const IntValue &A, const IntValue &B) {
  std::vector<RtValue> Ops;
  Ops.push_back(RtValue(A));
  Ops.push_back(RtValue(B));
  return evalPure(Op, Ops, 0, nullptr);
}

IntValue boolVal(bool B) { return IntValue(1, B); }

} // namespace

TEST(RtOpsFastWide, RandomizedWidths1To128) {
  std::mt19937_64 Rng(0xfab1e5eedull);
  for (unsigned Trial = 0; Trial != 400; ++Trial) {
    unsigned W = 1 + Rng() % 128;
    IntValue A(W, 0), B(W, 0);
    for (unsigned I = 0; I != W; ++I) {
      A.setBit(I, Rng() & 1);
      B.setBit(I, Rng() & 1);
    }
    // Bias some trials toward the interesting corners.
    if (Trial % 7 == 0)
      B = IntValue(W, 0);
    if (Trial % 11 == 0)
      A = IntValue::allOnes(W);
    Bits BA = toBits(A), BB = toBits(B);

    EXPECT_EQ(evalBin(Opcode::Add, A, B).intValue(),
              fromBits(refAdd(BA, BB)))
        << "add at width " << W;
    EXPECT_EQ(evalBin(Opcode::Sub, A, B).intValue(),
              fromBits(refSub(BA, BB)))
        << "sub at width " << W;
    EXPECT_EQ(evalBin(Opcode::Mul, A, B).intValue(),
              fromBits(refMul(BA, BB)))
        << "mul at width " << W;

    Bits Q, R;
    refUdivRem(BA, BB, Q, R);
    EXPECT_EQ(evalBin(Opcode::Udiv, A, B).intValue(), fromBits(Q))
        << "udiv at width " << W;
    EXPECT_EQ(evalBin(Opcode::Urem, A, B).intValue(), fromBits(R))
        << "urem at width " << W;
    EXPECT_EQ(evalBin(Opcode::Sdiv, A, B).intValue(),
              fromBits(refSdiv(BA, BB)))
        << "sdiv at width " << W;
    EXPECT_EQ(evalBin(Opcode::Srem, A, B).intValue(),
              fromBits(refSrem(BA, BB)))
        << "srem at width " << W;
    EXPECT_EQ(evalBin(Opcode::Smod, A, B).intValue(),
              fromBits(refSmod(BA, BB)))
        << "smod at width " << W;

    // Bitwise.
    for (Opcode Op : {Opcode::And, Opcode::Or, Opcode::Xor}) {
      Bits RB(W);
      for (unsigned I = 0; I != W; ++I)
        RB[I] = Op == Opcode::And   ? (BA[I] & BB[I])
                : Op == Opcode::Or  ? (BA[I] | BB[I])
                                    : (BA[I] ^ BB[I]);
      EXPECT_EQ(evalBin(Op, A, B).intValue(), fromBits(RB))
          << "bitwise at width " << W;
    }
    {
      std::vector<RtValue> One;
      One.push_back(RtValue(A));
      EXPECT_EQ(evalPure(Opcode::Not, One, 0, nullptr).intValue(),
                fromBits(refNot(BA)))
          << "not at width " << W;
      EXPECT_EQ(evalPure(Opcode::Neg, One, 0, nullptr).intValue(),
                fromBits(refNeg(BA)))
          << "neg at width " << W;
    }

    // Comparisons.
    int CU = refCmpU(BA, BB), CS = refCmpS(BA, BB);
    EXPECT_EQ(evalBin(Opcode::Eq, A, B).intValue(), boolVal(CU == 0));
    EXPECT_EQ(evalBin(Opcode::Neq, A, B).intValue(), boolVal(CU != 0));
    EXPECT_EQ(evalBin(Opcode::Ult, A, B).intValue(), boolVal(CU < 0));
    EXPECT_EQ(evalBin(Opcode::Ugt, A, B).intValue(), boolVal(CU > 0));
    EXPECT_EQ(evalBin(Opcode::Ule, A, B).intValue(), boolVal(CU <= 0));
    EXPECT_EQ(evalBin(Opcode::Uge, A, B).intValue(), boolVal(CU >= 0));
    EXPECT_EQ(evalBin(Opcode::Slt, A, B).intValue(), boolVal(CS < 0));
    EXPECT_EQ(evalBin(Opcode::Sgt, A, B).intValue(), boolVal(CS > 0));
    EXPECT_EQ(evalBin(Opcode::Sle, A, B).intValue(), boolVal(CS <= 0));
    EXPECT_EQ(evalBin(Opcode::Sge, A, B).intValue(), boolVal(CS >= 0));

    // Shifts: the amount operand has its own width (8 bits here), so
    // amounts range over [0, 255] and clamp at the value width.
    unsigned Amt = Rng() % (W + 4);
    IntValue AmtV(8, Amt);
    {
      unsigned S = Amt > W ? W : Amt;
      EXPECT_EQ(evalBin(Opcode::Shl, A, AmtV).intValue(),
                fromBits(refShl(BA, S)))
          << "shl " << S << " at width " << W;
      EXPECT_EQ(evalBin(Opcode::Shr, A, AmtV).intValue(),
                fromBits(refShr(BA, S)))
          << "shr " << S << " at width " << W;
      EXPECT_EQ(evalBin(Opcode::Ashr, A, AmtV).intValue(),
                fromBits(refAshr(BA, S)))
          << "ashr " << S << " at width " << W;
    }
  }
}

// The boundary widths get a deterministic exhaustive-ish sweep: results
// at 64 (fast path) and 65 (wide path) must agree with the reference for
// the same low-64 operand bits.
TEST(RtOpsFastWide, BoundaryWidthsAgree) {
  std::mt19937_64 Rng(42);
  for (unsigned Trial = 0; Trial != 200; ++Trial) {
    uint64_t RA = Rng(), RB = Rng();
    for (unsigned W : {63u, 64u, 65u}) {
      IntValue A(W, std::vector<uint64_t>{RA, Rng() & 1});
      IntValue B(W, std::vector<uint64_t>{RB, Rng() & 1});
      Bits BA = toBits(A), BB = toBits(B);
      EXPECT_EQ(evalBin(Opcode::Add, A, B).intValue(),
                fromBits(refAdd(BA, BB)));
      EXPECT_EQ(evalBin(Opcode::Sub, A, B).intValue(),
                fromBits(refSub(BA, BB)));
      EXPECT_EQ(evalBin(Opcode::Mul, A, B).intValue(),
                fromBits(refMul(BA, BB)));
      EXPECT_EQ(evalBin(Opcode::Ult, A, B).intValue(),
                boolVal(refCmpU(BA, BB) < 0));
      EXPECT_EQ(evalBin(Opcode::Slt, A, B).intValue(),
                boolVal(refCmpS(BA, BB) < 0));
      Bits Q, R;
      refUdivRem(BA, BB, Q, R);
      EXPECT_EQ(evalBin(Opcode::Udiv, A, B).intValue(), fromBits(Q));
      EXPECT_EQ(evalBin(Opcode::Urem, A, B).intValue(), fromBits(R));
    }
  }
}

TEST(RtOpsFastWide, RtValueStaysSmall) {
  static_assert(sizeof(RtValue) <= 32,
                "scalar RtValue must stay within 32 bytes");
  EXPECT_LE(sizeof(RtValue), 32u);
}

TEST(RtOpsFastWide, SignedDivisionBoundaries) {
  // The div-by-zero X-prop rule and the MIN/-1 wrap must agree between
  // the width<=64 fast path and the IntValue wide path, on both sides
  // of the word boundary.
  for (unsigned W : {1u, 8u, 63u, 64u, 65u, 128u}) {
    IntValue Zero(W, 0);
    IntValue Five(W, 5);
    IntValue MinusFive = Five.neg();
    IntValue MinusOne = IntValue::allOnes(W);
    EXPECT_EQ(evalBin(Opcode::Sdiv, MinusFive, Zero).intValue(),
              IntValue::allOnes(W))
        << "sdiv by zero at width " << W;
    EXPECT_EQ(evalBin(Opcode::Sdiv, Five, Zero).intValue(),
              IntValue::allOnes(W))
        << "sdiv by zero at width " << W;
    EXPECT_EQ(evalBin(Opcode::Srem, MinusFive, Zero).intValue(),
              MinusFive)
        << "srem by zero at width " << W;
    EXPECT_EQ(evalBin(Opcode::Smod, MinusFive, Zero).intValue(),
              MinusFive)
        << "smod by zero at width " << W;
    EXPECT_EQ(evalBin(Opcode::Udiv, Five, Zero).intValue(),
              IntValue::allOnes(W))
        << "udiv by zero at width " << W;
    EXPECT_EQ(evalBin(Opcode::Urem, Five, Zero).intValue(), Five)
        << "urem by zero at width " << W;

    IntValue Min(W, 0);
    Min.setBit(W - 1, true);
    EXPECT_EQ(evalBin(Opcode::Sdiv, Min, MinusOne).intValue(), Min)
        << "MIN/-1 at width " << W;
    EXPECT_EQ(evalBin(Opcode::Srem, Min, MinusOne).intValue(),
              IntValue(W, 0))
        << "MIN rem -1 at width " << W;

    // Sign combinations around the boundary widths.
    IntValue Seven(W, 7);
    if (W >= 4) {
      EXPECT_EQ(evalBin(Opcode::Sdiv, Seven.neg(), IntValue(W, 2))
                    .intValue()
                    .sextToI64(),
                -3)
          << "width " << W;
      EXPECT_EQ(evalBin(Opcode::Srem, Seven.neg(), IntValue(W, 2))
                    .intValue()
                    .sextToI64(),
                -1)
          << "width " << W;
      EXPECT_EQ(evalBin(Opcode::Smod, Seven.neg(), IntValue(W, 2))
                    .intValue()
                    .sextToI64(),
                1)
          << "width " << W;
    }
  }
}

//===----------------------------------------------------------------------===//
// The in-place word path against the wide path
//===----------------------------------------------------------------------===//

namespace {

/// Destination preloads of every kind the word path may overwrite.
std::vector<RtValue> destinationPreloads() {
  std::vector<RtValue> D;
  D.push_back(RtValue());
  D.push_back(RtValue(IntValue(13, 5)));
  D.push_back(RtValue(IntValue(128, std::vector<uint64_t>{1, 2})));
  D.push_back(RtValue(LogicVec::fromString("01XZ")));
  D.push_back(RtValue(LogicVec::fromString(std::string(33, 'U'))));
  D.push_back(RtValue(Time::ns(1)));
  D.push_back(RtValue::makePointer(2));
  SigRef Ref;
  Ref.Sig = 1;
  D.push_back(RtValue(Ref));
  D.push_back(RtValue(Ref.element(0)));
  D.push_back(RtValue::makeArray({RtValue(IntValue(4, 1))}));
  return D;
}

IntValue randomInt(std::mt19937_64 &Rng, unsigned W) {
  return IntValue(W, Rng());
}

} // namespace

// Every opcode evalIntFast takes, on every width 1..64, must produce what
// evalPureWide (the wide path, no word shortcut) produces, whatever the
// destination slot held before: evalIntFast writes the result into the
// slot in place.
TEST(RtOpsInPlace, MatchesWidePathForEveryOpcode) {
  const Opcode Binary[] = {
      Opcode::Add, Opcode::Sub,  Opcode::Mul, Opcode::Udiv, Opcode::Sdiv,
      Opcode::Umod, Opcode::Smod, Opcode::Urem, Opcode::Srem, Opcode::And,
      Opcode::Or,  Opcode::Xor,  Opcode::Eq,  Opcode::Neq,  Opcode::Ult,
      Opcode::Ugt, Opcode::Ule,  Opcode::Uge, Opcode::Slt,  Opcode::Sgt,
      Opcode::Sle, Opcode::Sge};
  const Opcode Shifts[] = {Opcode::Shl, Opcode::Shr, Opcode::Ashr};
  const Opcode Unary[] = {Opcode::Not, Opcode::Neg};
  const Opcode Casts[] = {Opcode::Zext, Opcode::Sext, Opcode::Trunc,
                          Opcode::Exts};
  const std::vector<RtValue> Preloads = destinationPreloads();
  const int32_t Idx[] = {0, 1};
  std::mt19937_64 Rng(0x1a9e5ull);
  unsigned Checked = 0;

  // Evaluates both paths and compares them for every preload.
  auto check = [&](Opcode Op, const std::vector<RtValue> &Ops, unsigned Imm,
                   unsigned Width) {
    RtValue Wide = evalPureWide(Op, Ops.data(), Idx, Ops.size(), Imm, Width,
                                nullptr);
    for (const RtValue &P : Preloads) {
      RtValue Dst = P;
      ASSERT_TRUE(evalIntFast(Op, Ops[0], Ops.size() == 2 ? &Ops[1] : nullptr,
                              Imm, Width, Dst))
          << opcodeName(Op) << " at width " << Ops[0].intValue().width();
      EXPECT_EQ(Dst, Wide) << opcodeName(Op) << " " << Ops[0].toString()
                           << " imm " << Imm << " width " << Width
                           << " over " << P.toString();
      ++Checked;
    }
  };

  for (unsigned W = 1; W <= 64; ++W) {
    uint64_t Mask = IntValue::maskOf(W);
    std::vector<IntValue> Vals{IntValue(W, 0), IntValue(W, 1),
                               IntValue(W, uint64_t(1) << (W - 1)),
                               IntValue(W, Mask)};
    for (unsigned I = 0; I != 3; ++I)
      Vals.push_back(randomInt(Rng, W));
    for (const IntValue &A : Vals) {
      for (const IntValue &B : Vals)
        for (Opcode Op : Binary)
          check(Op, {RtValue(A), RtValue(B)}, 0, 0);
      for (Opcode Op : Shifts)
        for (uint64_t Amt : {uint64_t(0), uint64_t(W - 1), uint64_t(W),
                             uint64_t(W + 3)})
          check(Op, {RtValue(A), RtValue(IntValue(8, Amt))}, 0, 0);
      for (Opcode Op : Unary)
        check(Op, {RtValue(A)}, 0, 0);

      // inss: a slice of width WB at offset Imm, Imm + WB <= W.
      unsigned WB = Rng() % (W + 1), Imm = Rng() % (W - WB + 1);
      check(Opcode::Inss, {RtValue(A), RtValue(randomInt(Rng, WB))}, Imm, 0);

      for (Opcode Op : Casts) {
        unsigned To = Op == Opcode::Zext || Op == Opcode::Sext
                          ? W + Rng() % (64 - W + 1)
                          : Rng() % (W + 1);
        unsigned Off = Op == Opcode::Exts ? Rng() % (W - To + 1) : 0;
        check(Op, {RtValue(A)}, Off, To);
      }
    }
  }
  EXPECT_GT(Checked, 100000u);
}

// Operands the word path does not take leave the destination alone.
TEST(RtOpsInPlace, DeclinesWideAndLogicOperands) {
  RtValue Dst(IntValue(128, std::vector<uint64_t>{1, 2}));
  const RtValue Keep = Dst;
  RtValue Wide(IntValue(65, 3)), Narrow(IntValue(8, 3));
  RtValue Logic(LogicVec::fromString("0101"));
  EXPECT_FALSE(evalIntFast(Opcode::Add, Wide, &Wide, 0, 0, Dst));
  EXPECT_FALSE(evalIntFast(Opcode::Not, Wide, nullptr, 0, 0, Dst));
  EXPECT_FALSE(evalIntFast(Opcode::And, Logic, &Logic, 0, 0, Dst));
  EXPECT_FALSE(evalIntFast(Opcode::Add, Narrow, &Wide, 0, 0, Dst));
  EXPECT_FALSE(evalIntFast(Opcode::Zext, Narrow, nullptr, 0, 65, Dst));
  EXPECT_FALSE(evalIntFast(Opcode::Mux, Narrow, &Narrow, 0, 0, Dst));
  EXPECT_EQ(Dst, Keep);
}

// The destination may be one of the operands.
TEST(RtOpsInPlace, DestinationAliasesOperand) {
  RtValue A(IntValue(16, 40000)), B(IntValue(16, 30000));
  ASSERT_TRUE(evalIntFast(Opcode::Add, A, &B, 0, 0, A));
  EXPECT_EQ(A, RtValue(IntValue(16, 70000 & 0xffff)));
  ASSERT_TRUE(evalIntFast(Opcode::Ult, A, &B, 0, 0, B));
  EXPECT_EQ(B, RtValue(IntValue(1, 1)));
}

//===----------------------------------------------------------------------===//
// The LIR word opcodes against the wide path, in every dispatch loop
//===----------------------------------------------------------------------===//

namespace {

/// The signal of \p Sim whose name ends in "/" + \p Name.
SignalId signalNamed(const InterpSim &Sim, const std::string &Name) {
  const SignalTable &S = Sim.signals();
  std::string Suffix = "/" + Name;
  for (SignalId I = 0; I != S.size(); ++I) {
    const std::string &N = S.name(I);
    if (N.size() >= Suffix.size() &&
        N.compare(N.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      return I;
  }
  return InvalidSignal;
}

} // namespace

// Each op lowers to its own word opcode at the widths around the byte,
// word and 64-bit boundaries, and runs through both of the interpreter's
// dispatch loops on edge values and fixed-seed random operands, where it
// must give exactly what evalPureWide gives on the same operands. Per op
// and width, one design computes `op a, b` in a function (exec in a
// call), an entity (evalEntity), a straight-line process with a stable
// wait and the testbench process that feeds one operand pair per
// nanosecond (exec in a process, both), which also calls the function;
// each result is driven onto its own signal, sampled at the end of every
// nanosecond.
TEST(RtOpsWordOps, DecodedOpsMatchWidePathInEveryLoop) {
  enum Shape { Bin, Cmp, Shift, Un, Ext, Trunc, Exts, Inss };
  struct Case {
    Opcode Op;
    Shape S;
  };
  const Case Cases[] = {
      {Opcode::Add, Bin},    {Opcode::Sub, Bin},   {Opcode::Mul, Bin},
      {Opcode::Udiv, Bin},   {Opcode::Sdiv, Bin},  {Opcode::Umod, Bin},
      {Opcode::Urem, Bin},   {Opcode::Smod, Bin},  {Opcode::Srem, Bin},
      {Opcode::And, Bin},    {Opcode::Or, Bin},    {Opcode::Xor, Bin},
      {Opcode::Eq, Cmp},     {Opcode::Neq, Cmp},   {Opcode::Ult, Cmp},
      {Opcode::Ugt, Cmp},    {Opcode::Ule, Cmp},   {Opcode::Uge, Cmp},
      {Opcode::Slt, Cmp},    {Opcode::Sgt, Cmp},   {Opcode::Sle, Cmp},
      {Opcode::Sge, Cmp},    {Opcode::Shl, Shift}, {Opcode::Shr, Shift},
      {Opcode::Ashr, Shift}, {Opcode::Not, Un},    {Opcode::Neg, Un},
      {Opcode::Zext, Ext},   {Opcode::Sext, Ext},  {Opcode::Trunc, Trunc},
      {Opcode::Exts, Exts},  {Opcode::Inss, Inss}};
  const unsigned Widths[] = {1, 2, 7, 8, 31, 32, 33, 63, 64};
  const char *const Results[] = {"rf", "re", "rc", "rg"};
  Context Ctx;
  std::mt19937_64 Rng(0x9e3779b9ull);
  unsigned Checked = 0;

  for (unsigned W : Widths) {
    uint64_t Mask = IntValue::maskOf(W);
    for (const Case &C : Cases) {
      // The second operand's width, and the cast or slice geometry.
      unsigned WB = C.S == Shift ? 1 + Rng() % 64 : W;
      unsigned To = C.S == Ext ? W + Rng() % (64 - W + 1)
                    : C.S == Trunc || C.S == Exts ? 1 + Rng() % W
                                                  : W;
      unsigned Off = C.S == Exts ? Rng() % (W - To + 1) : 0;
      if (C.S == Inss) {
        WB = 1 + Rng() % W;
        Off = Rng() % (W - WB + 1);
      }
      bool Binary = C.S == Bin || C.S == Cmp || C.S == Shift || C.S == Inss;
      std::string Where = std::string(opcodeName(C.Op)) + " at width " +
                          std::to_string(W);
      SCOPED_TRACE(Where);

      // The operand pairs, and what the wide path makes of each.
      std::vector<uint64_t> As{0, 1, uint64_t(1) << (W - 1), Mask, Mask - 1};
      std::vector<uint64_t> Bs{0, 1, IntValue::maskOf(WB),
                               uint64_t(1) << (WB - 1), W, W - 1u};
      for (unsigned K = 0; K != 6; ++K) {
        As.push_back(Rng() & Mask);
        Bs.push_back(Rng() & IntValue::maskOf(WB));
      }
      if (!Binary)
        Bs.resize(1);
      std::vector<std::pair<uint64_t, uint64_t>> Pairs;
      for (uint64_t a : As)
        for (uint64_t b : Bs)
          Pairs.push_back({a & Mask, b & IntValue::maskOf(WB)});

      Module M(Ctx, "wordops");
      Type *TA = Ctx.intType(W), *TB = Ctx.intType(WB);
      std::vector<Instruction *> OpInsts;
      auto emit = [&](IRBuilder &Bld, Value *A, Value *B) {
        Instruction *I = nullptr;
        switch (C.S) {
        case Bin: I = Bld.binary(C.Op, A, B); break;
        case Cmp: I = Bld.cmp(C.Op, A, B); break;
        case Shift: I = Bld.shift(C.Op, A, B); break;
        case Un: I = Bld.unary(C.Op, A); break;
        case Ext:
        case Trunc: I = Bld.cast(C.Op, Ctx.intType(To), A); break;
        case Exts: I = Bld.exts(A, Off, To); break;
        case Inss: I = Bld.inss(A, B, Off); break;
        }
        OpInsts.push_back(I);
        return I;
      };
      // The ports of a unit computing op(a, b) into r.
      auto ports = [&](Unit *U, Type *TR) {
        std::vector<Value *> P{U->addInput(Ctx.signalType(TA), "a")};
        if (Binary)
          P.push_back(U->addInput(Ctx.signalType(TB), "b"));
        P.push_back(U->addOutput(Ctx.signalType(TR), "r"));
        return P;
      };

      Unit *Fn = M.createFunction("f");
      std::vector<Value *> FArgs{Fn->addInput(TA, "a")};
      if (Binary)
        FArgs.push_back(Fn->addInput(TB, "b"));
      IRBuilder FBld(Fn->createBlock("entry"));
      Instruction *FI = emit(FBld, FArgs[0], Binary ? FArgs[1] : nullptr);
      Type *TR = FI->type();
      Fn->setReturnType(TR);
      FBld.ret(FI);

      Unit *Ent = M.createEntity("ent");
      std::vector<Value *> EP = ports(Ent, TR);
      IRBuilder EBld(Ent->entityBlock());
      EBld.drv(EP.back(),
               emit(EBld, EBld.prb(EP[0]), Binary ? EBld.prb(EP[1]) : nullptr),
               EBld.constTime(Time()));

      Unit *Comb = M.createProcess("comb");
      std::vector<Value *> CP = ports(Comb, TR);
      BasicBlock *CEntry = Comb->createBlock("entry");
      IRBuilder CBld(CEntry);
      CBld.drv(CP.back(),
               emit(CBld, CBld.prb(CP[0]), Binary ? CBld.prb(CP[1]) : nullptr),
               CBld.constTime(Time()));
      CBld.wait(CEntry, std::vector<Value *>(CP.begin(), CP.end() - 1));

      // The testbench drives pair k onto a and b at k ns and computes
      // op itself and through f.
      Unit *Tb = M.createProcess("tb");
      std::vector<Value *> TP{Tb->addOutput(Ctx.signalType(TA), "a")};
      if (Binary)
        TP.push_back(Tb->addOutput(Ctx.signalType(TB), "b"));
      Value *Rg = Tb->addOutput(Ctx.signalType(TR), "rg");
      Value *Rf = Tb->addOutput(Ctx.signalType(TR), "rf");
      IRBuilder TBld(Tb->createBlock("p0"));
      Instruction *Delta = TBld.constTime(Time());
      Instruction *Step = TBld.constTime(Time::ns(1));
      for (size_t K = 0; K != Pairs.size(); ++K) {
        std::vector<Value *> Args{TBld.constInt(W, Pairs[K].first)};
        if (Binary)
          Args.push_back(TBld.constInt(WB, Pairs[K].second));
        for (size_t J = 0; J != Args.size(); ++J)
          TBld.drv(TP[J], Args[J], Delta);
        TBld.drv(Rg, emit(TBld, Args[0], Binary ? Args[1] : nullptr), Delta);
        TBld.drv(Rf, TBld.call(Fn, Args), Delta);
        BasicBlock *Next = Tb->createBlock("p" + std::to_string(K + 1));
        TBld.wait(Next, {}, Step);
        TBld.setInsertPoint(Next);
      }
      TBld.halt();

      Unit *Top = M.createEntity("top");
      IRBuilder T(Top->entityBlock());
      std::vector<Value *> In{T.sig(T.constInt(W, 0), "a")};
      if (Binary)
        In.push_back(T.sig(T.constInt(WB, 0), "b"));
      std::map<std::string, Value *> R;
      for (const char *N : Results)
        R[N] = T.sig(T.constInt(TR->bitWidth(), 0), N);
      T.inst(Ent, In, {R["re"]});
      T.inst(Comb, In, {R["rc"]});
      std::vector<Value *> TbOut = In;
      TbOut.push_back(R["rg"]);
      TbOut.push_back(R["rf"]);
      T.inst(Tb, {}, TbOut);

      // Every op lowers to the word opcode of its IR opcode, and each
      // process takes the loop it is here for.
      for (Unit *U : {Fn, Ent, Comb, Tb}) {
        LirUnit L = lowerUnit(*U);
        unsigned Found = 0;
        for (const LirOp &Op : L.Ops) {
          if (std::find(OpInsts.begin(), OpInsts.end(), Op.Origin) ==
              OpInsts.end())
            continue;
          ++Found;
          ASSERT_EQ(Op.C, wordOpc(C.Op))
              << "@" << U->name() << " stays generic";
          EXPECT_EQ(Op.IrOp, C.Op);
          EXPECT_EQ(L.Slots[Op.Dst].Width, TR->bitWidth());
        }
        EXPECT_EQ(Found, U == Tb ? Pairs.size() : 1u) << "@" << U->name();
        if (U == Comb) {
          EXPECT_TRUE(L.StableWait);
        }
        if (U == Tb) {
          EXPECT_FALSE(L.StableWait);
        }
      }

      Design D = elaborate(M, "top");
      ASSERT_TRUE(D.ok()) << D.Error;
      SimOptions O;
      O.TraceMode = Trace::Mode::Full;
      InterpSim Sim(std::move(D), O);
      SimStats St = Sim.run();
      ASSERT_TRUE(St.Finished);

      // Replays the trace, sampling every result signal at the end of
      // each nanosecond.
      std::vector<SignalId> Ids;
      std::vector<std::string> Cur;
      for (const char *N : Results) {
        Ids.push_back(signalNamed(Sim, N));
        ASSERT_NE(Ids.back(), InvalidSignal) << N;
        Cur.push_back(RtValue(IntValue(TR->bitWidth(), 0)).toString());
      }
      const std::vector<Trace::Change> &Changes = Sim.trace().changes();
      size_t Next = 0;
      const int32_t Idx[] = {0, 1};
      for (size_t K = 0; K != Pairs.size(); ++K) {
        for (; Next != Changes.size() &&
               Changes[Next].T.Fs <= Time::ns(K).Fs;
             ++Next)
          for (size_t J = 0; J != Ids.size(); ++J)
            if (Changes[Next].Sig == Ids[J])
              Cur[J] = Changes[Next].Val;
        auto [a, b] = Pairs[K];
        std::vector<RtValue> Ops{RtValue(IntValue(W, a))};
        if (Binary)
          Ops.push_back(RtValue(IntValue(WB, b)));
        RtValue Wide = evalPureWide(C.Op, Ops.data(), Idx, Ops.size(),
                                    FI->immediate(), pureResultWidth(*FI),
                                    FI);
        ASSERT_TRUE(Wide.isInt());
        for (size_t J = 0; J != Ids.size(); ++J) {
          EXPECT_EQ(Cur[J], Wide.toString())
              << Results[J] << ": a=" << a << " b=" << b << " imm "
              << FI->immediate();
          ++Checked;
        }
      }
    }
  }
  EXPECT_GT(Checked, 40000u);
}

//===----------------------------------------------------------------------===//
// The JIT prelude's helpers: the code native units and the fast path run
//===----------------------------------------------------------------------===//

namespace {

Bits bitsOf(uint64_t V, unsigned W) { return toBits(IntValue(W, V)); }

uint64_t wordOf(const Bits &B) { return fromBits(B).zextToU64(); }

} // namespace

// Every helper of jit/Prelude.h against the bit-level reference, on each
// width 1..64: random operands plus zero, one, MIN, MAX and all-ones, and
// the shift amounts that clamp (w, w+1, 2^32+1, ~0) beside 0 and w-1.
TEST(JitPrelude, HelpersMatchReference) {
  using namespace native;
  std::mt19937_64 Rng(0x9e1dull);
  for (unsigned W = 1; W <= 64; ++W) {
    uint64_t Mask = IntValue::maskOf(W);
    uint64_t Min = uint64_t(1) << (W - 1);
    std::vector<uint64_t> Vals{0, 1, Min, Min - 1, Mask};
    for (unsigned I = 0; I != 6; ++I)
      Vals.push_back(Rng() & Mask);
    for (uint64_t X : {uint64_t(Rng()), ~uint64_t(0), Min})
      EXPECT_EQ(jm(X, W), X & Mask) << "jm at width " << W;

    for (uint64_t A : Vals) {
      Bits BA = bitsOf(A, W);
      EXPECT_EQ(jsx(A, W), fromBits(BA).sextToI64())
          << "jsx " << A << " at " << W;
      for (uint64_t Amt : {uint64_t(0), uint64_t(W - 1), uint64_t(W),
                           uint64_t(W + 1), (uint64_t(1) << 32) + 1,
                           ~uint64_t(0)}) {
        unsigned S = Amt > W ? W : static_cast<unsigned>(Amt);
        EXPECT_EQ(jshl(A, Amt, W), wordOf(refShl(BA, S)))
            << "jshl " << A << " by " << Amt << " at " << W;
        EXPECT_EQ(jshr(A, Amt, W), wordOf(refShr(BA, S)))
            << "jshr " << A << " by " << Amt << " at " << W;
        EXPECT_EQ(jashr(A, Amt, W), wordOf(refAshr(BA, S)))
            << "jashr " << A << " by " << Amt << " at " << W;
      }
      for (uint64_t B : Vals) {
        Bits BB = bitsOf(B, W), Q, R;
        refUdivRem(BA, BB, Q, R);
        EXPECT_EQ(judiv(A, B, W), wordOf(Q)) << A << "/" << B << " at " << W;
        EXPECT_EQ(jurem(A, B), wordOf(R)) << A << "%" << B << " at " << W;
        EXPECT_EQ(jsdiv(A, B, W), wordOf(refSdiv(BA, BB)))
            << "jsdiv " << A << ", " << B << " at " << W;
        EXPECT_EQ(jsrem(A, B, W), wordOf(refSrem(BA, BB)))
            << "jsrem " << A << ", " << B << " at " << W;
        EXPECT_EQ(jsmod(A, B, W), wordOf(refSmod(BA, BB)))
            << "jsmod " << A << ", " << B << " at " << W;
      }
    }

    // The named corners: division by zero and MIN / -1.
    EXPECT_EQ(judiv(Min, 0, W), Mask) << W;
    EXPECT_EQ(jsdiv(Min, 0, W), Mask) << W;
    EXPECT_EQ(jurem(Min, 0), Min) << W;
    EXPECT_EQ(jsrem(Min, 0, W), Min) << W;
    EXPECT_EQ(jsmod(Min, 0, W), Min) << W;
    EXPECT_EQ(jsdiv(Min, Mask, W), Min) << "MIN/-1 at " << W;
    EXPECT_EQ(jsrem(Min, Mask, W), 0u) << "MIN rem -1 at " << W;
    EXPECT_EQ(jsmod(Min, Mask, W), 0u) << "MIN mod -1 at " << W;
  }
}
