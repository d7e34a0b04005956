//===- tests/sim/RunControlTest.cpp - Watchdogs, budgets, stop control ----===//
//
// Exercises the run-control surface of sim/RunControl.h on both
// engines: the zero-delay oscillation detector (with its named process/
// signal diagnostics), event and delta budgets (including budgets that
// span a kill/resume cycle), the wall-clock watchdog, the cooperative
// stop flag, checkpoint-hook failure propagation, periodic checkpoint
// cadence, and the waveform writer's RAII guarantee on early exits.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "sim/Interp.h"
#include "sim/Wave.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <sstream>

using namespace llhd;

namespace {

/// A zero-delay inverter driving its own input: flips every delta cycle,
/// so simulation time can never advance past the first wake.
const char *OscSrc = R"(
entity @osc_top () -> () {
  %z1 = const i1 0
  %x = sig i1 %z1
  inst @osc (i1$ %x) -> (i1$ %x)
}
proc @osc (i1$ %in) -> (i1$ %out) {
entry:
  %d0 = const time 0s
  br %loop
loop:
  %v = prb i1$ %in
  %n = not i1 %v
  drv i1$ %out, %n after %d0
  wait %loop for %in
}
)";

/// A free-running clocked counter; never halts on its own, so every stop
/// observed in these tests is run-control's doing.
const char *CounterSrc = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z8 = const i8 0
  %clk = sig i1 %z1
  %cnt = sig i8 %z8
  inst @clkgen () -> (i1$ %clk)
  inst @count (i1$ %clk) -> (i8$ %cnt)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @count (i1$ %clk) -> (i8$ %cnt) {
entry:
  %one = const i8 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i8$ %cnt
  %vn = add i8 %v, %one
  drv i8$ %cnt, %vn after %d0
  br %loop
}
)";

Design parseAndElaborate(Context &Ctx, Module &M, const char *Src,
                         const char *Top) {
  ParseResult R = parseModule(Src, M);
  EXPECT_TRUE(R.Ok) << R.Error;
  Design D = elaborate(M, Top);
  EXPECT_TRUE(D.ok()) << D.Error;
  return D;
}

} // namespace

TEST(RunControl, OscillationDetectorNamesTheCycleOnAllEngines) {
  Context Ctx;
  SimOptions Opts;
  Opts.MaxTime = Time::ns(10);
  Opts.MaxDeltasPerInstant = 64; // Trip fast; the cycle is tiny.

  auto check = [](const char *Engine, const SimStats &St) {
    EXPECT_EQ(St.Stop, StopReason::Oscillation) << Engine;
    EXPECT_TRUE(St.DeltaOverflow) << Engine;
    ASSERT_FALSE(St.OscProcs.empty()) << Engine;
    ASSERT_FALSE(St.OscSigs.empty()) << Engine;
    EXPECT_NE(std::find(St.OscProcs.begin(), St.OscProcs.end(),
                        "osc_top/osc"),
              St.OscProcs.end())
        << Engine << ": cycling process not named";
    EXPECT_NE(std::find(St.OscSigs.begin(), St.OscSigs.end(), "osc_top/x"),
              St.OscSigs.end())
        << Engine << ": cycling signal not named";
  };

  Module M1(Ctx, "i");
  InterpSim I(parseAndElaborate(Ctx, M1, OscSrc, "osc_top"), Opts);
  check("interp", I.run());

  Module M2(Ctx, "b");
  ASSERT_TRUE(parseModule(OscSrc, M2).Ok);
  BlazeSim::BlazeOptions BO;
  static_cast<SimOptions &>(BO) = Opts;
  BlazeSim B(M2, "osc_top", BO);
  ASSERT_TRUE(B.valid()) << B.error();
  check("blaze", B.run());

  Module M3(Ctx, "l");
  ASSERT_TRUE(parseModule(OscSrc, M3).Ok);
  BO.Jit.M = jit::JitOptions::Mode::Off;
  BlazeSim L(M3, "osc_top", BO);
  ASSERT_TRUE(L.valid()) << L.error();
  check("blaze --jit=off", L.run());
}

TEST(RunControl, StopFlagInterruptsAtTheNextInstantBoundary) {
  Context Ctx;
  Module M(Ctx, "m");
  volatile std::sig_atomic_t Flag = 1; // Raised before the run starts.
  SimOptions Opts;
  Opts.MaxTime = Time::ns(100);
  Opts.RC.StopFlag = &Flag;
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  SimStats St = Sim.run();
  EXPECT_EQ(St.Stop, StopReason::Interrupted);
  EXPECT_EQ(St.Steps, 0u); // Stopped before the first instant ran.
  EXPECT_FALSE(St.Finished);
}

TEST(RunControl, EventBudgetStops) {
  Context Ctx;
  Module M(Ctx, "m");
  SimOptions Opts;
  Opts.MaxTime = Time::ns(1000);
  Opts.RC.MaxEvents = 40;
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  SimStats St = Sim.run();
  EXPECT_EQ(St.Stop, StopReason::EventBudget);
  EXPECT_LT(St.EndTime.Fs, Time::ns(1000).Fs);
}

TEST(RunControl, DeltaBudgetSpansAKillResumeCycle) {
  // Steps are checkpointed, so a resumed run's budget counts the slots
  // already burned before the kill — budgets bound the *run*, not each
  // attempt at it. (Budgets are checked at instant boundaries, so the
  // count can overshoot by the last instant's delta cycles.)
  Context Ctx;
  Module MRef(Ctx, "ref");
  SimOptions ORef;
  ORef.MaxTime = Time::ns(100);
  InterpSim Ref(parseAndElaborate(Ctx, MRef, CounterSrc, "top"), ORef);
  uint64_t FullSteps = Ref.run().Steps;

  Module M(Ctx, "m");
  SimOptions Opts;
  Opts.MaxTime = Time::ns(100);
  Opts.RC.MaxSteps = 4;
  Opts.RC.CheckpointOnStop = true;
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  std::vector<uint8_t> Image;
  Sim.options().RC.Checkpoint = [&](Time) {
    Sim.checkpoint(Image);
    return true;
  };
  SimStats St = Sim.run();
  ASSERT_EQ(St.Stop, StopReason::DeltaBudget);
  ASSERT_GE(St.Steps, 4u);
  ASSERT_FALSE(Image.empty());

  Module M2(Ctx, "m2");
  SimOptions Opts2;
  Opts2.MaxTime = Time::ns(100);
  Opts2.RC.MaxSteps = St.Steps + 2;
  InterpSim Res(parseAndElaborate(Ctx, M2, CounterSrc, "top"), Opts2);
  std::string Err;
  ASSERT_TRUE(Res.restore(Image, Err)) << Err;
  SimStats St2 = Res.run();
  EXPECT_EQ(St2.Stop, StopReason::DeltaBudget);
  // The restored counter pre-charges the budget: only ~2 more slots ran,
  // nowhere near a fresh budget's worth.
  EXPECT_GE(St2.Steps, St.Steps + 2);
  EXPECT_LT(St2.Steps, FullSteps);
}

TEST(RunControl, WallClockWatchdogStops) {
  Context Ctx;
  Module M(Ctx, "m");
  SimOptions Opts; // Default MaxTime is effectively unbounded.
  Opts.RC.WallTimeoutSec = 0.05;
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  SimStats St = Sim.run();
  EXPECT_EQ(St.Stop, StopReason::WallTimeout);
  EXPECT_FALSE(St.Finished);
}

TEST(RunControl, CheckpointHookFailureAbortsTheRun) {
  Context Ctx;
  Module M(Ctx, "m");
  SimOptions Opts;
  Opts.MaxTime = Time::ns(100);
  Opts.RC.CheckpointEveryFs = Time::ns(5).Fs;
  Opts.RC.Checkpoint = [](Time) { return false; }; // Disk full, say.
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  SimStats St = Sim.run();
  EXPECT_EQ(St.Stop, StopReason::CheckpointError);
  EXPECT_LT(St.EndTime.Fs, Time::ns(100).Fs);
}

TEST(RunControl, PeriodicCheckpointsFireOnCadenceAndRestore) {
  Context Ctx;
  Module MRef(Ctx, "ref");
  SimOptions ORef;
  ORef.MaxTime = Time::ns(100);
  InterpSim Ref(parseAndElaborate(Ctx, MRef, CounterSrc, "top"), ORef);
  Ref.run();

  Module M(Ctx, "m");
  SimOptions Opts;
  Opts.MaxTime = Time::ns(100);
  Opts.RC.CheckpointEveryFs = Time::ns(10).Fs;
  InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
  std::vector<uint8_t> Image;
  std::vector<uint64_t> FireTimes;
  Sim.options().RC.Checkpoint = [&](Time T) {
    FireTimes.push_back(T.Fs);
    Image.clear();
    Sim.checkpoint(Image);
    return true;
  };
  SimStats St = Sim.run();
  EXPECT_EQ(St.Stop, StopReason::None);
  // ~10ns cadence over 100ns: several firings, at increasing times.
  EXPECT_GE(FireTimes.size(), 5u);
  EXPECT_TRUE(std::is_sorted(FireTimes.begin(), FireTimes.end()));
  // The run itself is undisturbed by the periodic hook...
  EXPECT_EQ(Sim.trace().digest(), Ref.trace().digest());
  // ...and the last image resumes to the same final digest.
  Module M2(Ctx, "m2");
  SimOptions O2;
  O2.MaxTime = Time::ns(100);
  InterpSim Res(parseAndElaborate(Ctx, M2, CounterSrc, "top"), O2);
  std::string Err;
  ASSERT_TRUE(Res.restore(Image, Err)) << Err;
  Res.run();
  EXPECT_EQ(Res.trace().digest(), Ref.trace().digest());
}

TEST(RunControl, WaveWriterLeavesWellFormedDumpOnEveryEarlyExit) {
  // The reference dump, uninterrupted.
  Context Ctx;
  Module MRef(Ctx, "ref");
  WaveWriter WRef;
  SimOptions ORef;
  ORef.MaxTime = Time::ns(100);
  ORef.Wave = &WRef;
  InterpSim Ref(parseAndElaborate(Ctx, MRef, CounterSrc, "top"), ORef);
  Ref.run();
  ASSERT_FALSE(WRef.text().empty());

  // A budget-stopped run writes a strict, well-formed prefix of it —
  // streamed through a sink and finalised purely by RAII destruction.
  std::ostringstream Sink;
  {
    Module M(Ctx, "cut");
    WaveWriter W;
    W.streamTo(Sink);
    SimOptions Opts;
    Opts.MaxTime = Time::ns(100);
    Opts.Wave = &W;
    Opts.RC.MaxSteps = 20;
    InterpSim Sim(parseAndElaborate(Ctx, M, CounterSrc, "top"), Opts);
    EXPECT_EQ(Sim.run().Stop, StopReason::DeltaBudget);
    // No explicit finish(): the writer goes out of scope here.
  }
  std::string Cut = Sink.str();
  ASSERT_FALSE(Cut.empty());
  EXPECT_NE(Cut.find("$dumpvars"), std::string::npos);
  EXPECT_LT(Cut.size(), WRef.text().size());
  EXPECT_EQ(WRef.text().compare(0, Cut.size(), Cut), 0)
      << "interrupted dump is not a prefix of the reference dump";
}
