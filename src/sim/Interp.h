//===- sim/Interp.h - Reference interpreter (LLHD-Sim) ----------*- C++ -*-===//
//
// The reference simulator of §6.1: "deliberately designed to be the
// simplest possible simulator of the LLHD instruction set, rather than
// the fastest". Executes the lowered runtime IR (sim/Lir.h) of the
// caller's module as given, through the shared execution core
// (sim/LirEngine.h); every engine-visible semantic (value ops,
// intrinsics, scheduling, resolution, checkpoints) is shared with Blaze
// through sim/RtOps.h, sim/Kernel.h and sim/Checkpoint.h. BlazeSim
// (blaze/Blaze.h) is this facade over an optimised, natively compiled
// program; the two are the only engines.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_INTERP_H
#define LLHD_SIM_INTERP_H

#include "sim/Design.h"
#include "sim/RunControl.h"
#include "sim/SimState.h"

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace llhd {

class LirEngine;
class WaveWriter;
struct LirProgram;
namespace jit {
struct JitStats;
} // namespace jit

/// Common per-run configuration for all engines.
struct SimOptions {
  Time MaxTime = Time::us(1000000000ull); ///< Hard stop.
  Trace::Mode TraceMode = Trace::Mode::Hash;
  uint64_t MaxDeltasPerInstant = 10000; ///< Delta-cycle oscillation guard.
  /// Optional waveform observer (sim/Wave.h), fed from the shared event
  /// loop's signal-commit path. Null (the default) keeps the commit path
  /// free of any waveform work beyond one pointer test.
  WaveWriter *Wave = nullptr;
  /// Stimulus seed for the llhd.random intrinsic ($random/$urandom).
  /// Batch instance i runs with Seed + i, so instances diverge.
  uint64_t Seed = 0;
  /// Runtime plusargs (`+key=value` / bare `+key`), queried by designs
  /// through $test$plusargs / $plusarg$value.
  std::vector<std::pair<std::string, std::string>> Plusargs;
  /// Watchdogs, budgets, stop flags, and checkpoint triggers. All off by
  /// default; see sim/RunControl.h.
  RunControl RC;
};

/// The LLHD-Sim reference engine, and the facade of every engine that
/// runs a LirProgram.
class InterpSim {
public:
  /// Takes ownership of the elaborated design.
  InterpSim(Design D, SimOptions Opts = SimOptions());
  /// Batch form: runs over a shared immutable program (design + lowered
  /// units, native code if it was built with the JIT), so N instances
  /// elaborate and lower once. See sim/Batch.h. \p Prog must not be null.
  InterpSim(std::shared_ptr<const LirProgram> Prog,
            SimOptions Opts = SimOptions());
  virtual ~InterpSim();
  InterpSim(const InterpSim &) = delete;
  InterpSim &operator=(const InterpSim &) = delete;

  bool valid() const;
  const std::string &error() const;

  /// Runs to completion (queue empty, all processes halted, or MaxTime).
  /// After restore(), continues from the checkpointed instant instead.
  SimStats run();

  /// Live options; mutate before run() to wire run-control hooks that
  /// need to capture this engine (e.g. RC.Checkpoint).
  SimOptions &options();

  /// Serializes the full runtime state into Out (sim/Checkpoint.h
  /// format). Call between runs or from the RC.Checkpoint hook.
  void checkpoint(std::vector<uint8_t> &Out);

  /// Restores state from a checkpoint() image; on success the next run()
  /// resumes mid-simulation. Natively bound processes rebind their lane
  /// state, deopting per instance when the image's resumption point has
  /// no native entry. Returns false and sets Err on version or module
  /// mismatch, or on a corrupt image.
  bool restore(const std::vector<uint8_t> &In, std::string &Err);

  const Trace &trace() const;
  const SignalTable &signals() const;
  /// The elaborated design this engine simulates.
  const Design &design() const;
  /// What the program's JIT bound for this run (Enabled false when the
  /// program has no native code).
  const jit::JitStats &jitStats() const;
  /// The generated C++ translation unit ("" when nothing was emitted).
  const std::string &jitSource() const;
  /// The memory cells the \p PI-th process instance (in design instance
  /// order) holds: one per var op whose pointer is only a ld/st address,
  /// plus one per execution of a var whose pointer escapes.
  size_t processCells(uint32_t PI) const;

protected:
  /// Runs \p Prog recording \p EngineName in checkpoint headers.
  InterpSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts,
            const char *EngineName);

private:
  std::unique_ptr<LirEngine> P;
};

} // namespace llhd

#endif // LLHD_SIM_INTERP_H
