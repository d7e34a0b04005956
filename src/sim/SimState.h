//===- sim/SimState.h - Per-run mutable simulation state --------*- C++ -*-===//
//
// The mutable half of a simulation. Design (sim/Design.h) is the frozen
// per-design layout every run reads; SimState is everything one run
// writes: its signal values and driver slots (a per-run view over the
// shared SignalTable layout), the event wheel, the change trace, the
// clock, the run statistics, and the stimulus RNG. Batch mode
// (sim/Batch.h) runs N SimStates over one Design on a worker pool; the
// const-correctness split is what lets the compiler (and TSan) prove the
// instances cannot race.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_SIMSTATE_H
#define LLHD_SIM_SIMSTATE_H

#include "sim/Design.h"
#include "sim/RunControl.h"

#include <cstdint>
#include <string>
#include <vector>

namespace llhd {

/// Common per-run results for all engines.
struct SimStats {
  Time EndTime;
  uint64_t Steps = 0;         ///< Time slots processed.
  uint64_t ProcessRuns = 0;   ///< Process resumptions.
  uint64_t EntityEvals = 0;   ///< Entity re-evaluations.
  /// Signal updates ever scheduled (Scheduler::totalScheduled()), set
  /// when the run returns; a resumed run counts from the checkpoint.
  uint64_t DrivesScheduled = 0;
  /// How many of those took the scheduler's word lane
  /// (Scheduler::wordScheduled()); a resumed run counts from the resume.
  uint64_t WordDrives = 0;
  uint64_t AssertFailures = 0;
  bool Finished = false;      ///< A process called llhd.finish / all halted.
  bool DeltaOverflow = false; ///< Oscillation guard tripped.
  /// Why the run stopped early; None for a normal drain/finish/MaxTime.
  StopReason Stop = StopReason::None;
  /// When Stop == Oscillation: hierarchical names of the processes and
  /// signals active in the cycling delta (sorted, deduped, capped).
  std::vector<std::string> OscProcs;
  std::vector<std::string> OscSigs;
};

/// Everything one simulation run mutates. The engine owns one of these
/// per run; its event loop (LirEngine::run) drives it against a
/// `const Design &`.
struct SimState {
  /// Per-run signal values and driver slots over the shared layout.
  SignalTable Signals;
  /// The (time, delta, epsilon) event wheel.
  Scheduler Sched;
  /// Signal-change trace / digest.
  Trace Tr;
  /// Run statistics, filled by the event loop and the engine.
  SimStats Stats;
  /// Current simulation time.
  Time Now;
  /// xorshift64* state behind the llhd.random intrinsic ($random /
  /// $urandom). Seeded per run (SimOptions::Seed), never zero.
  uint64_t Rng = 0x9e3779b97f4a7c15ull;
  /// Set by the llhd.finish intrinsic; the event loop stops after the
  /// current delta cycle.
  bool FinishRequested = false;

  SimState() = default;
  SimState(const Design &D, Trace::Mode TM, uint64_t Seed)
      : Signals(D.Signals.makeRun()), Tr(TM), Rng(rngSeed(Seed)) {}

  /// Next 32 random bits from the run's stimulus stream.
  uint32_t nextRandom() {
    uint64_t X = Rng;
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    Rng = X;
    return static_cast<uint32_t>((X * 0x2545f4914f6cdd1dull) >> 32);
  }

  /// SplitMix64 of the user seed: decorrelates consecutive seeds (batch
  /// instance i runs with Seed + i) and maps 0 to a valid nonzero state.
  static uint64_t rngSeed(uint64_t Seed) {
    uint64_t Z = Seed + 0x9e3779b97f4a7c15ull;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z = Z ^ (Z >> 31);
    return Z ? Z : 0x9e3779b97f4a7c15ull;
  }
};

} // namespace llhd

#endif // LLHD_SIM_SIMSTATE_H
