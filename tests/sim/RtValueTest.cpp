//===- tests/sim/RtValueTest.cpp - RtValue special members ----------------===//
//
// RtValue's copy, move, assignment and destruction take an inline word
// path when the payload owns no heap memory and out-of-line code
// otherwise. This test runs every special member over every ordered pair
// of value kinds — inline, 65-bit and 128-bit integers, short and long
// logic, time, pointer, inline and boxed signal references, array,
// struct and invalid — including self-assignment and assignment from a
// value nested inside the destination, and checks that the values
// compare equal afterwards. Run under ASan it also proves that no path
// leaks, double-frees or reads freed payloads.
//
//===----------------------------------------------------------------------===//

#include "sim/RtValue.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace llhd;

namespace {

struct Sample {
  std::string Name;
  RtValue V;
  bool Trivial; ///< Expected trivialPayload().
};

SigRef wholeRef(SignalId S) {
  SigRef R;
  R.Sig = S;
  return R;
}

/// One value of every kind, each distinct from the others.
std::vector<Sample> samples() {
  std::vector<Sample> S;
  S.push_back({"invalid", RtValue(), true});
  S.push_back({"i32", RtValue(IntValue(32, 0xdeadbeef)), true});
  S.push_back({"i64", RtValue(IntValue(64, ~uint64_t(0))), true});
  S.push_back({"i65", RtValue(IntValue(65, std::vector<uint64_t>{7, 1})),
               false});
  S.push_back({"i128", RtValue(IntValue(128, std::vector<uint64_t>{3, 9})),
               false});
  S.push_back({"l4", RtValue(LogicVec::fromString("01XZ")), true});
  S.push_back({"l40", RtValue(LogicVec::fromString(std::string(20, 'X') +
                                                  std::string(20, '1'))),
               false});
  S.push_back({"time", RtValue(Time::ns(5)), true});
  S.push_back({"pointer", RtValue::makePointer(3), true});
  S.push_back({"sig", RtValue(wholeRef(4)), true});
  S.push_back({"sig-bits", RtValue(wholeRef(4).bits(2, 3)), true});
  S.push_back({"sig-path", RtValue(wholeRef(5).element(1)), false});
  S.push_back({"sig-elems", RtValue(wholeRef(6).elements(1, 2)), false});
  std::vector<RtValue> Elems;
  Elems.push_back(RtValue(IntValue(8, 1)));
  Elems.push_back(RtValue(IntValue(100, 2)));
  S.push_back({"array", RtValue::makeArray(Elems), false});
  S.push_back({"flat-array",
               RtValue::makeArray({RtValue(IntValue(16, 5)),
                                   RtValue(IntValue(64, 6))}),
               false});
  std::vector<RtValue> Fields;
  Fields.push_back(RtValue(Time::ps(1)));
  Fields.push_back(RtValue::makeArray(Elems));
  Fields.push_back(RtValue(LogicVec::fromString("10")));
  S.push_back({"struct", RtValue::makeStruct(Fields), false});
  return S;
}

TEST(RtValue, KindsAreDistinctAndClassified) {
  std::vector<Sample> S = samples();
  for (size_t I = 0; I != S.size(); ++I) {
    EXPECT_EQ(S[I].V.trivialPayload(), S[I].Trivial) << S[I].Name;
    for (size_t J = 0; J != S.size(); ++J)
      EXPECT_EQ(S[I].V == S[J].V, I == J) << S[I].Name << " vs " << S[J].Name;
  }
}

TEST(RtValue, CopyAndMoveConstruction) {
  for (const Sample &X : samples()) {
    RtValue C(X.V);
    EXPECT_EQ(C, X.V) << X.Name;
    RtValue T(X.V);
    RtValue M(std::move(T));
    EXPECT_EQ(M, X.V) << X.Name;
    EXPECT_TRUE(T.isInvalid()) << X.Name; // NOLINT(bugprone-use-after-move)
  }
}

TEST(RtValue, AssignmentAcrossEveryPairOfKinds) {
  std::vector<Sample> S = samples();
  for (const Sample &From : S) {
    for (const Sample &To : S) {
      std::string Ctx = To.Name + " = " + From.Name;
      RtValue D(To.V);
      D = From.V;
      EXPECT_EQ(D, From.V) << "copy " << Ctx;

      RtValue M(To.V), Src(From.V);
      M = std::move(Src);
      EXPECT_EQ(M, From.V) << "move " << Ctx;
      EXPECT_TRUE(Src.isInvalid()) << "move " << Ctx; // NOLINT

      // Assign over a value that was itself assigned (the reused-storage
      // paths of wide integers and logic vectors).
      RtValue R(From.V);
      R = To.V;
      R = From.V;
      EXPECT_EQ(R, From.V) << "reassign " << Ctx;
    }
  }
}

TEST(RtValue, SelfAssignment) {
  for (const Sample &X : samples()) {
    RtValue V(X.V);
    RtValue &Alias = V;
    V = Alias;
    EXPECT_EQ(V, X.V) << "copy " << X.Name;
    V = std::move(Alias);
    EXPECT_EQ(V, X.V) << "move " << X.Name;
  }
}

TEST(RtValue, AssignFromNestedElement) {
  // The source lives inside the destination's payload: it must be copied
  // before that payload is released.
  for (const Sample &X : samples()) {
    if (!X.V.isAggregate())
      continue;
    RtValue V(X.V);
    RtValue Expect = X.V.elements()[1];
    V = V.elements()[1];
    EXPECT_EQ(V, Expect) << X.Name;
  }
}

// Assigning an aggregate over one whose elements own no heap memory
// reuses the destination's element buffer, whatever the source holds;
// a destination with a heap element takes the copy path.
TEST(RtValue, FlatAggregateAssignmentReusesElements) {
  RtValue Dst = RtValue::makeArray(
      {RtValue(IntValue(16, 1)), RtValue(IntValue(16, 2))});
  const RtValue *Buf = Dst.elements().data();
  RtValue Src = RtValue::makeArray(
      {RtValue(IntValue(16, 3)), RtValue(IntValue(16, 4))});
  Dst = Src;
  EXPECT_EQ(Dst, Src);
  EXPECT_EQ(Dst.elements().data(), Buf);
  RtValue Wide = RtValue::makeArray(
      {RtValue(IntValue(100, 5)), RtValue(IntValue(8, 6))});
  Dst = Wide;
  EXPECT_EQ(Dst, Wide);
  EXPECT_EQ(Dst.elements().data(), Buf);
  Dst = Src;
  EXPECT_EQ(Dst, Src);
}

TEST(RtValue, SetWordOverEveryKind) {
  for (const Sample &X : samples()) {
    for (unsigned W : {1u, 17u, 64u}) {
      RtValue V(X.V);
      V.setWord(W, ~uint64_t(0));
      EXPECT_EQ(V, RtValue(IntValue::allOnes(W))) << X.Name << " <- i" << W;
      EXPECT_TRUE(V.trivialPayload());
    }
  }
}

TEST(RtValue, ContainersOfMixedKinds) {
  // Vector growth moves elements; erasing shifts them by assignment.
  std::vector<Sample> S = samples();
  std::vector<RtValue> Vs;
  for (int Round = 0; Round != 3; ++Round)
    for (const Sample &X : S)
      Vs.push_back(X.V);
  Vs.erase(Vs.begin(), Vs.begin() + 5);
  for (size_t I = 0; I != Vs.size(); ++I)
    EXPECT_EQ(Vs[I], S[(I + 5) % S.size()].V) << I;
}

TEST(RtValue, Truthiness) {
  EXPECT_TRUE(RtValue(IntValue(1, 1)).isTruthy());
  EXPECT_FALSE(RtValue(IntValue(1, 0)).isTruthy());
  EXPECT_TRUE(RtValue(IntValue(65, std::vector<uint64_t>{0, 1})).isTruthy());
  EXPECT_FALSE(RtValue(IntValue(65, 0)).isTruthy());
  EXPECT_TRUE(RtValue(LogicVec::fromString("1")).isTruthy());
  EXPECT_FALSE(RtValue(LogicVec::fromString("0")).isTruthy());
}

} // namespace
