//===- sim/EventLoop.h - Shared event-driven main loop ----------*- C++ -*-===//
//
// The engine-independent simulation main loop: pops time slots, applies
// signal updates, computes the wake set and dispatches into the engine.
// The one LIR executor (sim/LirEngine.h, behind Interp and Blaze)
// instantiates this template with its process/entity execution; the
// scheduling semantics live here, once. The engine contract is the
// EngineTraits concept below; violations fail at the instantiation site
// with the missing requirement named.
//
// Wake sets are computed through dense reverse indices: entity watchers
// come from Design::EntityWatchers (built at elaboration), and dynamic
// process sensitivity is registered into a WakeIndex each time a process
// suspends. One time slot therefore costs O(updates + changed signals +
// woken units), independent of the total process count.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_EVENTLOOP_H
#define LLHD_SIM_EVENTLOOP_H

#include "sim/Design.h"
#include "sim/Interp.h" // SimOptions / SimStats.
#include "sim/Wave.h"

#include <algorithm>
#include <chrono>
#include <concepts>
#include <vector>

namespace llhd {

/// The contract every simulation engine implements to drive the shared
/// event loop. Processes are identified by dense indices [0, numProcs()),
/// entities by [0, numEnts()), both in elaboration (Design::Instances)
/// order so that Design::EntityWatchers applies to every engine.
template <typename E>
concept EngineTraits = requires(E &Eng, uint32_t I, bool Initial) {
  /// Unit counts.
  { Eng.numProcs() } -> std::convertible_to<uint32_t>;
  { Eng.numEnts() } -> std::convertible_to<uint32_t>;
  /// Process scheduling state.
  { Eng.procWaiting(I) } -> std::convertible_to<bool>;
  { Eng.procHalted(I) } -> std::convertible_to<bool>;
  /// Stale-timer guard: the generation is bumped on every wake and every
  /// suspension, invalidating earlier timers and registrations.
  { Eng.procWakeGen(I) } -> std::convertible_to<uint64_t>;
  { Eng.procBumpWakeGen(I) };
  /// Canonical signal ids the process registered at its last `wait`.
  { Eng.procSensitivity(I) } ->
      std::convertible_to<const std::vector<SignalId> &>;
  /// True when the process's sensitivity is static (one wait, no
  /// timeout — the LIR classifier's PureComb/ClockedReg shapes): the
  /// loop then registers it once at initialisation and skips the
  /// per-activation wake-generation bump and re-registration.
  { Eng.procSenseStable(I) } -> std::convertible_to<bool>;
  /// Execution.
  { Eng.runProcess(I) };
  { Eng.evalEntity(I, Initial) };
  /// A process executed llhd.finish.
  { Eng.finishRequested() } -> std::convertible_to<bool>;
  /// Hierarchical instance name, for run-control diagnostics.
  { Eng.procName(I) } -> std::convertible_to<std::string>;
};

/// Sorts and dedups a wake list; most lists hold at most one unit.
inline void sortUnique(std::vector<uint32_t> &V) {
  if (V.size() < 2)
    return;
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

template <EngineTraits Engine>
SimStats runEventLoop(Engine &Eng, const Design &D, const SimOptions &Opts,
                      SimState &St, bool Resumed = false) {
  // The design is shared immutable state (batch instances run it
  // concurrently); everything this loop mutates lives in the run's
  // SimState.
  Scheduler &Sched = St.Sched;
  Trace &Tr = St.Tr;
  Time &Now = St.Now;
  SimStats &Stats = St.Stats;
  SignalTable &Signals = St.Signals;
  // Dynamic process sensitivity, re-registered at every suspension.
  WakeIndex WIdx;
  WIdx.resize(Signals.size());
  auto registerSensitivity = [&](uint32_t PI) {
    if (Eng.procWaiting(PI))
      WIdx.watch(PI, Eng.procWakeGen(PI), Eng.procSensitivity(PI));
  };
  auto curGen = [&Eng](uint32_t PI) { return Eng.procWakeGen(PI); };

  // Optional waveform observer: header and initial state go out before
  // the first event (initialisation only schedules, it never commits a
  // signal value, so the elaboration-time values are the #0 state). A
  // resumed run instead seeds the writer's last-value cache from the
  // restored signal table and appends — no header, no $dumpvars.
  WaveWriter *Wave = Opts.Wave;
  if (Wave) {
    if (Resumed)
      Wave->resume(Signals);
    else
      Wave->begin(Signals);
  }

  if (!Resumed) {
    // Initialisation (§2.4.3): processes run to their first suspension,
    // entities evaluate once.
    Now = Time();
    for (uint32_t PI = 0; PI != Eng.numProcs(); ++PI) {
      Eng.runProcess(PI);
      registerSensitivity(PI);
    }
    for (uint32_t EI = 0; EI != Eng.numEnts(); ++EI)
      Eng.evalEntity(EI, /*Initial=*/true);
  } else {
    // Restored processes are already suspended mid-simulation; rebuild
    // the (loop-local) wake index from their checkpointed sensitivity.
    for (uint32_t PI = 0; PI != Eng.numProcs(); ++PI)
      registerSensitivity(PI);
  }

  const RunControl &RC = Opts.RC;
  using WallClock = std::chrono::steady_clock;
  WallClock::time_point Deadline{};
  if (RC.WallTimeoutSec > 0)
    Deadline = WallClock::now() +
               std::chrono::duration_cast<WallClock::duration>(
                   std::chrono::duration<double>(RC.WallTimeoutSec));
  uint64_t NextCkptFs =
      RC.CheckpointEveryFs
          ? (Now.Fs / RC.CheckpointEveryFs + 1) * RC.CheckpointEveryFs
          : 0;

  uint64_t DeltasAtInstant = 0;
  uint64_t LastFs = Resumed ? Now.Fs : ~0ull;
  // Scratch reused across slots; capacity settles after a few steps.
  SlotEvents Ev;
  std::vector<SignalId> Changed;
  std::vector<uint32_t> ProcsToRun, EntsToRun;
  std::vector<uint8_t> ChangedMark(Signals.size(), 0);
  while (!Sched.empty() && !Eng.finishRequested()) {
    Time T = Sched.nextTime();
    if (T > Opts.MaxTime)
      break;
    if (T.Fs != LastFs) {
      // A physical-instant boundary: the previous instant is fully
      // settled (the waveform writer's pending buffer holds exactly that
      // instant), so every run-control action fires here and only here.
      StopReason Why = StopReason::None;
      if (RC.StopFlag && *RC.StopFlag)
        Why = StopReason::Interrupted;
      else if (RC.MaxSteps && Stats.Steps >= RC.MaxSteps)
        Why = StopReason::DeltaBudget;
      else if (RC.MaxEvents && Sched.totalScheduled() >= RC.MaxEvents)
        Why = StopReason::EventBudget;
      else if (RC.WallTimeoutSec > 0 && WallClock::now() >= Deadline)
        Why = StopReason::WallTimeout;
      if (RC.Checkpoint &&
          ((NextCkptFs && T.Fs >= NextCkptFs) ||
           (Why != StopReason::None && RC.CheckpointOnStop))) {
        // Flush the settled instant first so the on-disk VCD and the
        // checkpoint cover the same prefix. Byte-neutral: the writer
        // would emit the identical bytes on the instant's next change.
        if (Wave)
          Wave->flushNow();
        if (!RC.Checkpoint(Now))
          Why = StopReason::CheckpointError;
        if (NextCkptFs)
          while (NextCkptFs <= T.Fs)
            NextCkptFs += RC.CheckpointEveryFs;
      }
      if (Why != StopReason::None) {
        Stats.Stop = Why;
        break;
      }
      LastFs = T.Fs;
      DeltasAtInstant = 0;
    } else if (++DeltasAtInstant > Opts.MaxDeltasPerInstant) {
      Stats.DeltaOverflow = true;
      Stats.Stop = StopReason::Oscillation;
      // Diagnose the cycle instead of just dying: the processes woken
      // and the signals changed in the previous delta are the cycling
      // set (the instant has been spinning for MaxDeltasPerInstant
      // deltas, so the steady-state combatants are in these vectors).
      for (uint32_t PI : ProcsToRun)
        Stats.OscProcs.push_back(Eng.procName(PI));
      for (SignalId S : Changed)
        Stats.OscSigs.push_back(Signals.name(S));
      auto trim = [](std::vector<std::string> &V) {
        std::sort(V.begin(), V.end());
        V.erase(std::unique(V.begin(), V.end()), V.end());
        if (V.size() > 16)
          V.resize(16);
      };
      trim(Stats.OscProcs);
      trim(Stats.OscSigs);
      break;
    }
    Now = T;
    ++Stats.Steps;

    Sched.pop(Ev);

    // Apply signal updates in scheduling order, word and general lanes
    // interleaved as filed; collect changed canonical signals (deduped
    // via marks, in first-change order).
    Changed.clear();
    for (const UpdateEntry &E : Ev.Entries) {
      SignalId Canon = commitUpdate(Signals, Ev, E);
      if (Canon == InvalidSignal)
        continue;
      if (!ChangedMark[Canon]) {
        ChangedMark[Canon] = 1;
        Changed.push_back(Canon);
      }
      const RtValue &V = Signals.storedValue(Canon);
      Tr.record(Now, Canon, V);
      if (Wave)
        Wave->onChange(Now, Canon, V);
    }
    for (SignalId S : Changed)
      ChangedMark[S] = 0;

    // Wake set: fresh timers plus sensitivity matches, each a direct
    // index lookup. Units run in ascending index order for determinism.
    ProcsToRun.clear();
    for (const ProcWake &W : Ev.Wakes)
      if (Eng.procWakeGen(W.Proc) == W.Gen && Eng.procWaiting(W.Proc))
        ProcsToRun.push_back(W.Proc);
    EntsToRun.clear();
    for (SignalId S : Changed) {
      const std::vector<uint32_t> &Ws = D.EntityWatchers[S];
      EntsToRun.insert(EntsToRun.end(), Ws.begin(), Ws.end());
      WIdx.collect(S, curGen, ProcsToRun);
    }
    sortUnique(ProcsToRun);
    sortUnique(EntsToRun);

    for (uint32_t PI : ProcsToRun) {
      if (Eng.procSenseStable(PI)) {
        // Stable sensitivity: the registration made at the first
        // suspension stays live (the generation never moves, and no
        // timers exist that would need invalidating).
        Eng.runProcess(PI);
        continue;
      }
      Eng.procBumpWakeGen(PI); // Invalidate pending timers.
      Eng.runProcess(PI);
      registerSensitivity(PI);
    }
    for (uint32_t EI : EntsToRun)
      Eng.evalEntity(EI, /*Initial=*/false);
  }

  if (Wave)
    Wave->finish();
  Stats.EndTime = Now;
  Stats.DrivesScheduled = Sched.totalScheduled();
  Stats.WordDrives = Sched.wordScheduled();
  Stats.Finished = Eng.finishRequested();
  if (!Stats.Finished) {
    bool AllHalted = Eng.numProcs() != 0;
    for (uint32_t PI = 0; PI != Eng.numProcs(); ++PI)
      AllHalted &= Eng.procHalted(PI);
    Stats.Finished = AllHalted || Sched.empty();
  }
  return Stats;
}

} // namespace llhd

#endif // LLHD_SIM_EVENTLOOP_H
