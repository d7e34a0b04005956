//===- tests/sim/SchedulerTest.cpp - Event wheel unit tests ---------------===//
//
// The two-lane event wheel in isolation: (time, delta, epsilon) pop
// ordering, the driveTarget zero-time rule, equal-time slot merging,
// heap-lane ordering under interleaved past/future schedules — and the
// stale-timer generation guard observed through a real simulation. Also
// the change-trace digest: its string-free fast case must hash exactly
// the bytes of the value's text.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace llhd;

namespace {

SigUpdate update(uint64_t Driver) {
  SigUpdate U;
  U.Ref.Sig = 0;
  U.Val = RtValue(IntValue(8, Driver));
  U.Driver = Driver;
  return U;
}

/// Drains the wheel, returning the popped times in order.
std::vector<Time> drain(Scheduler &S) {
  std::vector<Time> Order;
  SlotEvents Ev;
  while (!S.empty()) {
    Order.push_back(S.nextTime());
    S.pop(Ev);
  }
  return Order;
}

/// The driver ids of a popped slot's general updates, in entry order.
std::vector<uint64_t> drivers(const SlotEvents &Ev) {
  std::vector<uint64_t> Out;
  for (const UpdateEntry &E : Ev.Entries)
    Out.push_back(E.Sig == InvalidSignal ? Ev.General[E.Aux].Driver
                                         : E.Driver);
  return Out;
}

/// The digest Trace::record defines: FNV-1a over the time, the signal
/// and the bytes of the value's text, folded into \p D.
uint64_t textDigest(uint64_t D, Time T, SignalId S, const std::string &Text) {
  auto Mix = [&D](uint64_t X) {
    D ^= X;
    D *= 1099511628211ull;
  };
  Mix(T.Fs);
  Mix(T.Delta);
  Mix(S);
  for (char C : Text)
    Mix(static_cast<unsigned char>(C));
  return D;
}

TEST(TraceTest, DigestHashesTheValueText) {
  std::vector<RtValue> Vals;
  for (unsigned W : {1u, 63u, 64u, 65u, 128u}) {
    Vals.emplace_back(IntValue(W, 0));
    Vals.emplace_back(IntValue(W, 1));
    Vals.emplace_back(IntValue(W, 1234567890123456789ull));
    Vals.emplace_back(IntValue(W, ~0ull)); // Masked to W bits.
    if (W > 64) {
      // Beyond u64: the digest takes the multi-word decimal text.
      Vals.emplace_back(IntValue(W, std::vector<uint64_t>{~0ull, 1}));
      Vals.emplace_back(IntValue(W, std::vector<uint64_t>{0, 1}));
    }
  }
  Vals.emplace_back(LogicVec(4, Logic::X));
  Vals.emplace_back(LogicVec(IntValue(8, 0xa5)));
  Vals.emplace_back(Time::ns(5));
  Vals.emplace_back(Time(7, 2, 1));
  Vals.push_back(RtValue::makeArray(
      {RtValue(IntValue(8, 3)), RtValue(IntValue(8, 200))}));

  for (Trace::Mode M : {Trace::Mode::Hash, Trace::Mode::Full}) {
    Trace Tr(M);
    uint64_t Expect = Trace().digest();
    for (unsigned I = 0; I != Vals.size(); ++I) {
      Time T(1000 * I, I % 3);
      Tr.record(T, I, Vals[I]);
      Expect = textDigest(Expect, T, I, Vals[I].toString());
      EXPECT_EQ(Tr.digest(), Expect) << "value " << Vals[I].toString();
    }
    EXPECT_EQ(Tr.numChanges(), Vals.size());
    if (M == Trace::Mode::Full) {
      ASSERT_EQ(Tr.changes().size(), Vals.size());
      for (unsigned I = 0; I != Vals.size(); ++I)
        EXPECT_EQ(Tr.changes()[I].Val, Vals[I].toString());
    }
  }
}

TEST(SchedulerTest, DeltaVersusEpsilonOrdering) {
  // Within one physical instant, epsilon steps order before the next
  // delta, and deltas order among themselves.
  Scheduler S;
  S.scheduleUpdate(Time(0, 2, 0), update(1));
  S.scheduleUpdate(Time(0, 1, 0), update(2));
  S.scheduleUpdate(Time(0, 0, 1), update(3));
  S.scheduleUpdate(Time(0, 1, 1), update(4));

  std::vector<Time> Order = drain(S);
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order[0], Time(0, 0, 1));
  EXPECT_EQ(Order[1], Time(0, 1, 0));
  EXPECT_EQ(Order[2], Time(0, 1, 1));
  EXPECT_EQ(Order[3], Time(0, 2, 0));
}

TEST(SchedulerTest, DriveTargetZeroTimeLandsOnNextDelta) {
  Time Now(Time::ns(5).Fs, 3, 2);
  // A zero span becomes the next delta (epsilon resets).
  EXPECT_EQ(driveTarget(Now, Time()), Time(Time::ns(5).Fs, 4, 0));
  // A physical span starts a fresh instant at delta 0.
  EXPECT_EQ(driveTarget(Now, Time::ns(1)), Time(Time::ns(6).Fs, 0, 0));
  // An epsilon span stays within the current delta.
  EXPECT_EQ(driveTarget(Now, Time::eps()), Time(Time::ns(5).Fs, 3, 3));
}

TEST(SchedulerTest, EqualTimeEventsMergeInScheduleOrder) {
  // Events at the same time land in one slot and pop in scheduling
  // order — in the fast lane and in the heap lane alike. Engines rely
  // on this for last-write-wins determinism.
  Scheduler S;
  Time Current(0, 1, 0);        // Fast lane (current instant).
  Time Future = Time::ns(7);    // Heap lane.
  for (uint64_t I = 0; I != 4; ++I) {
    S.scheduleUpdate(Current, update(I));
    S.scheduleUpdate(Future, update(100 + I));
  }

  SlotEvents Ev;
  ASSERT_EQ(S.nextTime(), Current);
  S.pop(Ev);
  EXPECT_EQ(drivers(Ev), (std::vector<uint64_t>{0, 1, 2, 3}));

  ASSERT_EQ(S.nextTime(), Future);
  S.pop(Ev);
  EXPECT_EQ(drivers(Ev), (std::vector<uint64_t>{100, 101, 102, 103}));
  EXPECT_TRUE(S.empty());
}

TEST(SchedulerTest, HeapLaneOrdersInterleavedPastAndFutureSchedules) {
  // Schedules arrive out of order, interleaved with pops that advance
  // the head instant; pops must still come out in global time order.
  Scheduler S;
  SlotEvents Ev;

  S.scheduleUpdate(Time::ns(5), update(5));
  S.scheduleUpdate(Time::ns(1), update(1));
  S.scheduleUpdate(Time::ns(9), update(9));

  EXPECT_EQ(S.nextTime(), Time::ns(1));
  S.pop(Ev); // Head instant is now 1ns.
  EXPECT_EQ(drivers(Ev), (std::vector<uint64_t>{1}));

  // Current-instant deltas (fast lane), a nearer future time than the
  // pending 5ns, and one at a pending instant's delta.
  S.scheduleUpdate(Time(Time::ns(1).Fs, 1, 0), update(11));
  S.scheduleUpdate(Time::ns(3), update(3));
  S.scheduleUpdate(Time(Time::ns(5).Fs, 2, 0), update(52));

  std::vector<Time> Rest = drain(S);
  ASSERT_EQ(Rest.size(), 5u);
  EXPECT_EQ(Rest[0], Time(Time::ns(1).Fs, 1, 0));
  EXPECT_EQ(Rest[1], Time::ns(3));
  EXPECT_EQ(Rest[2], Time::ns(5));
  EXPECT_EQ(Rest[3], Time(Time::ns(5).Fs, 2, 0));
  EXPECT_EQ(Rest[4], Time::ns(9));
}

TEST(SchedulerTest, SameInstantHeapSlotsMigrateToFastLane) {
  // Two slots at the same future instant but different deltas: popping
  // the first anchors the instant; the second must still pop next, and
  // new same-instant schedules merge with it.
  Scheduler S;
  SlotEvents Ev;
  S.scheduleUpdate(Time::ns(2), update(1));
  S.scheduleUpdate(Time(Time::ns(2).Fs, 1, 0), update(2));

  S.pop(Ev);
  EXPECT_EQ(drivers(Ev), (std::vector<uint64_t>{1}));

  // Merge into the migrated delta-1 slot.
  S.scheduleUpdate(Time(Time::ns(2).Fs, 1, 0), update(3));
  EXPECT_EQ(S.nextTime(), Time(Time::ns(2).Fs, 1, 0));
  S.pop(Ev);
  EXPECT_EQ(drivers(Ev), (std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(S.empty());
}

TEST(SchedulerTest, WakesAndUpdatesShareSlots) {
  Scheduler S;
  SlotEvents Ev;
  S.scheduleWake(Time::ns(1), {7, 42});
  S.scheduleUpdate(Time::ns(1), update(1));
  S.scheduleWake(Time::ns(1), {8, 43});

  S.pop(Ev);
  ASSERT_EQ(Ev.Entries.size(), 1u);
  ASSERT_EQ(Ev.Wakes.size(), 2u);
  EXPECT_EQ(Ev.Wakes[0].Proc, 7u);
  EXPECT_EQ(Ev.Wakes[0].Gen, 42u);
  EXPECT_EQ(Ev.Wakes[1].Proc, 8u);
  EXPECT_TRUE(S.empty());
}

//===----------------------------------------------------------------------===//
// Word lane
//===----------------------------------------------------------------------===//

/// A frozen per-run table with one i8 signal "s" (id 0, initially 0) and
/// one l1 signal "l" (id 1).
SignalTable wordTable(Context &Ctx) {
  SignalTable Build;
  Build.create(Ctx.intType(8), RtValue(IntValue(8, 0)), "s");
  Build.create(Ctx.logicType(1), RtValue(LogicVec(1, Logic::L0)),
               "l");
  Build.freeze();
  return Build.makeRun();
}

/// Pops one slot and commits it the way the event loop does, recording
/// every change into \p Tr.
void commitSlot(Scheduler &S, SignalTable &Sig, Trace &Tr) {
  SlotEvents Ev;
  Time T = S.nextTime();
  S.pop(Ev);
  for (const UpdateEntry &E : Ev.Entries) {
    SignalId Canon = commitUpdate(Sig, Ev, E);
    if (Canon != InvalidSignal)
      Tr.record(T, Canon, Sig.storedValue(Canon));
  }
}

TEST(SchedulerTest, WordLaneMapCoversWholeTwoStateSignalsOnly) {
  Context Ctx;
  SignalTable Sig = wordTable(Ctx);
  EXPECT_EQ(Sig.wordCanon(0), 0u);
  EXPECT_EQ(Sig.wordCanon(1), InvalidSignal); // Logic-typed.
  // An unfrozen table has no word lane.
  SignalTable Build;
  Build.create(Ctx.intType(8), RtValue(IntValue(8, 0)), "s");
  EXPECT_FALSE(Build.frozen());
  EXPECT_EQ(Build.wordCanon(0), InvalidSignal);
  // A layout without signals is still frozen once freeze() ran.
  SignalTable Empty;
  Empty.freeze();
  EXPECT_TRUE(Empty.frozen());
  EXPECT_EQ(Empty.makeRun().size(), 0u);
}

TEST(SchedulerTest, WordAndGeneralUpdatesApplyInSchedulingOrder) {
  // Word, general, word and general updates to one signal in one slot:
  // they commit in the order they were filed, so the last write wins and
  // the trace sees every intermediate change — exactly as if all four
  // had taken the general lane.
  Context Ctx;
  Time T(0, 1, 0);
  const uint64_t Vals[] = {5, 5, 9, 3};
  auto general = [](uint64_t V) {
    SigUpdate U;
    U.Ref.Sig = 0;
    U.Val = RtValue(IntValue(8, V));
    U.Driver = V;
    return U;
  };

  SignalTable Mixed = wordTable(Ctx);
  Scheduler SM;
  SM.scheduleWord(T, 0, Vals[0], 1);
  SM.scheduleUpdate(T, general(Vals[1]));
  SM.scheduleWord(T, 0, Vals[2], 3);
  SM.scheduleUpdate(T, general(Vals[3]));
  EXPECT_EQ(SM.wordScheduled(), 2u);
  Trace TrMixed(Trace::Mode::Full);
  commitSlot(SM, Mixed, TrMixed);

  SignalTable Plain = wordTable(Ctx);
  Scheduler SP;
  for (uint64_t V : Vals)
    SP.scheduleUpdate(T, general(V));
  EXPECT_EQ(SP.wordScheduled(), 0u);
  Trace TrPlain(Trace::Mode::Full);
  commitSlot(SP, Plain, TrPlain);

  // 0 -> 5, 5 (no change), 9, 3.
  ASSERT_EQ(TrMixed.changes().size(), 3u);
  EXPECT_EQ(TrMixed.changes()[0].Val, "5");
  EXPECT_EQ(TrMixed.changes()[1].Val, "9");
  EXPECT_EQ(TrMixed.changes()[2].Val, "3");
  EXPECT_EQ(TrMixed.digest(), TrPlain.digest());
  EXPECT_EQ(Mixed.value(0).intValue(), IntValue(8, 3));
  EXPECT_EQ(Plain.value(0).intValue(), IntValue(8, 3));

  // The word lane's oracle: widths 1, 63 and 64, edge words and a
  // fixed-seed random sequence, each word driven into one slot and every
  // drive filed on the word lane, on the general lane, or on either by
  // pattern. Whatever the lanes, every entry commits the same value and
  // change flag, and the trace digest is the all-general one.
  struct LaneRun {
    std::vector<uint64_t> After; ///< The signal's word after each entry.
    std::vector<bool> Changed;   ///< Each entry's change flag.
    uint64_t Digest = 0;
    uint64_t WordScheduled = 0;
  };
  auto commitWords = [&](unsigned W, const std::vector<uint64_t> &Words,
                         auto OnWordLane) {
    SignalTable Build;
    Build.create(Ctx.intType(W), RtValue(IntValue(W, 0)), "s");
    Build.freeze();
    SignalTable Sig = Build.makeRun();
    Scheduler S;
    for (size_t I = 0; I != Words.size(); ++I) {
      if (OnWordLane(I)) {
        S.scheduleWord(T, 0, Words[I], 1);
        continue;
      }
      SigUpdate U;
      U.Ref.Sig = 0;
      U.Val = RtValue(IntValue(W, Words[I]));
      U.Driver = 1;
      S.scheduleUpdate(T, std::move(U));
    }
    LaneRun R;
    R.WordScheduled = S.wordScheduled();
    Trace Tr(Trace::Mode::Full);
    SlotEvents Ev;
    S.pop(Ev);
    for (const UpdateEntry &E : Ev.Entries) {
      SignalId Canon = commitUpdate(Sig, Ev, E);
      R.Changed.push_back(Canon != InvalidSignal);
      if (Canon != InvalidSignal)
        Tr.record(T, Canon, Sig.storedValue(Canon));
      R.After.push_back(Sig.value(0).intValue().zextToU64());
    }
    R.Digest = Tr.digest();
    return R;
  };
  std::mt19937_64 Rng(0x1a7e);
  for (unsigned W : {1u, 63u, 64u}) {
    const uint64_t Mask = W == 64 ? ~0ull : (1ull << W) - 1;
    const uint64_t Top = 1ull << (W - 1);
    // Each edge word twice, so every one also commits as a no-change.
    std::vector<uint64_t> Words;
    for (uint64_t V : {uint64_t(0), uint64_t(1), Top, Mask, uint64_t(0)})
      Words.insert(Words.end(), 2, V);
    for (unsigned I = 0; I != 64; ++I) {
      Words.push_back(Rng() & Mask);
      if (I % 4 == 0)
        Words.push_back(Words.back());
    }
    std::vector<bool> Pattern;
    for (size_t I = 0; I != Words.size(); ++I)
      Pattern.push_back(Rng() & 1);

    LaneRun General = commitWords(W, Words, [](size_t) { return false; });
    EXPECT_EQ(General.WordScheduled, 0u);
    ASSERT_EQ(General.After.size(), Words.size());
    EXPECT_EQ(General.After.back(), Words.back()) << "i" << W;
    EXPECT_FALSE(General.Changed[0]) << "i" << W; // 0 over the initial 0.
    EXPECT_TRUE(General.Changed[2]) << "i" << W;  // 0 -> 1.
    EXPECT_FALSE(General.Changed[3]) << "i" << W; // 1 again.

    std::vector<std::pair<const char *, LaneRun>> Runs;
    Runs.emplace_back("word",
                      commitWords(W, Words, [](size_t) { return true; }));
    Runs.emplace_back("alternating", commitWords(W, Words, [](size_t I) {
                        return I % 2 == 0;
                      }));
    Runs.emplace_back("random", commitWords(W, Words, [&](size_t I) {
                        return bool(Pattern[I]);
                      }));
    for (const auto &[Name, R] : Runs) {
      EXPECT_GT(R.WordScheduled, 0u) << "i" << W << " " << Name;
      EXPECT_EQ(R.After, General.After) << "i" << W << " " << Name;
      EXPECT_EQ(R.Changed, General.Changed) << "i" << W << " " << Name;
      EXPECT_EQ(R.Digest, General.Digest) << "i" << W << " " << Name;
    }
  }
}

TEST(SchedulerTest, PendingSlotsExpandWordEntries) {
  // A checkpoint snapshot reads as if every update had taken the general
  // lane: word entries become whole-signal SigUpdates of the signal's
  // width, in their original position among the general ones.
  Context Ctx;
  SignalTable Sig = wordTable(Ctx);
  Scheduler S;
  S.scheduleWord(Time::ns(1), 0, 200, 7);
  S.scheduleUpdate(Time::ns(1), update(8));
  S.scheduleWake(Time::ns(1), {4, 2});
  S.scheduleWord(Time::ns(2), 0, 1, 9);

  std::vector<Scheduler::PendingSlot> Slots = S.pendingSlots(Sig);
  ASSERT_EQ(Slots.size(), 2u);
  ASSERT_EQ(Slots[0].Updates.size(), 2u);
  const SigUpdate &W = Slots[0].Updates[0];
  EXPECT_TRUE(W.Ref.wholeSignal());
  EXPECT_EQ(W.Ref.Sig, 0u);
  EXPECT_EQ(W.Val, RtValue(IntValue(8, 200)));
  EXPECT_EQ(W.Driver, 7u);
  EXPECT_EQ(Slots[0].Updates[1].Driver, 8u);
  ASSERT_EQ(Slots[0].Wakes.size(), 1u);
  EXPECT_EQ(Slots[0].Wakes[0].Proc, 4u);
  EXPECT_EQ(Slots[1].T, Time::ns(2));
  ASSERT_EQ(Slots[1].Updates.size(), 1u);
  EXPECT_EQ(Slots[1].Updates[0].Val, RtValue(IntValue(8, 1)));
  EXPECT_EQ(Slots[1].Updates[0].Driver, 9u);
}

//===----------------------------------------------------------------------===//
// Stale-timer generation guard (through the event loop)
//===----------------------------------------------------------------------===//

struct SchedulerSimTest : public ::testing::Test {
  Context Ctx;
  Module M{Ctx, "t"};

  InterpSim makeSim(const char *Src, const std::string &Top) {
    ParseResult R = parseModule(Src, M);
    EXPECT_TRUE(R.Ok) << R.Error;
    Design D = elaborate(M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    return InterpSim(std::move(D));
  }
};

TEST_F(SchedulerSimTest, StaleTimerDoesNotRewakeProcess) {
  // The process waits on %a with a 10ns timeout; %a changes at 1ns.
  // The 10ns timer (scheduled with the old generation) must not fire
  // the process out of its second wait, so the counter stays at 1 and
  // the run ends at the second wait's own 20ns timeout.
  InterpSim Sim = makeSim(R"(
entity @top () -> () {
  %zero1 = const i1 0
  %zero8 = const i8 0
  %a = sig i1 %zero1
  %cnt = sig i8 %zero8
  inst @waiter (i1$ %a) -> (i8$ %cnt)
  inst @stim () -> (i1$ %a)
}
proc @waiter (i1$ %a) -> (i8$ %cnt) {
entry:
  %t10 = const time 10ns
  wait %woke for %a, %t10
woke:
  %c = prb i8$ %cnt
  %one = const i8 1
  %n = add i8 %c, %one
  %zt = const time 0s
  drv i8$ %cnt, %n after %zt
  %t20 = const time 20ns
  wait %done for %t20
done:
  halt
}
proc @stim () -> (i1$ %a) {
entry:
  %b1 = const i1 1
  %t1 = const time 1ns
  drv i1$ %a, %b1 after %t1
  halt
}
)", "top");
  SimStats St = Sim.run();
  EXPECT_TRUE(St.Finished);

  const SignalTable &Sig = Sim.signals();
  for (SignalId I = 0; I != Sig.size(); ++I)
    if (Sig.name(I).find("/cnt") != std::string::npos)
      EXPECT_EQ(Sig.value(I).intValue().zextToU64(), 1u)
          << "stale timer re-woke the process";
  // Woken at 1ns by the signal, halted at 1ns + 20ns.
  EXPECT_EQ(St.EndTime.Fs, Time::ns(21).Fs);
}

} // namespace
