//===- sim/Batch.h - Batched fleet simulation -------------------*- C++ -*-===//
//
// Compile once, simulate N times: a batch run parses, elaborates, lowers
// to LIR and (for Blaze) JIT-compiles exactly once, then executes N
// parameterized simulation instances concurrently on a worker pool. The
// instances share the immutable compile artifact (LirProgram: design
// topology, lowered code, signal-table layout, preload tables, native
// code handles) and own everything mutable (SimState: signal values,
// driver slots, event wheel, process frames, statistics, stimulus RNG) —
// the layout/state split in sim/Kernel.h and sim/Program.h is what makes
// the sharing sound.
//
// Instance i runs with Seed + i, so seeded stimulus ($random) diverges
// across the fleet while everything else — and therefore any instance
// re-run sequentially with the same seed — stays bit-identical
// (tests/sim/BatchTest.cpp asserts digest and VCD equality against
// sequential runs).
//
// The same two steps — buildProgram() and runInstance() — are how
// llhd-sim runs a single simulation and each engine of --diff-engines,
// so every run of the driver goes through one engine dispatch.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_BATCH_H
#define LLHD_SIM_BATCH_H

#include "jit/Jit.h"
#include "sim/Interp.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace llhd {

class Module;

/// The engines by their llhd-sim names, in --diff-engines order.
inline constexpr const char *EngineNames[] = {"interp", "blaze"};

/// Configuration of one batch run.
struct BatchOptions {
  /// Number of simulation instances.
  unsigned N = 1;
  /// Worker threads; 0 = one per hardware thread. Always capped at N;
  /// 1 runs every instance inline on the calling thread.
  unsigned Jobs = 0;
  /// Engine: one of EngineNames.
  std::string Engine = "blaze";
  /// Blaze: run the optimisation pipeline over the internal clone.
  bool Optimize = true;
  /// Blaze: native code generation. On by default, like BlazeSim; the
  /// one host compilation is part of the shared program build.
  jit::JitOptions Jit{jit::JitOptions::Mode::On, "", ""};
  /// Per-instance base configuration; instance i gets Seed = Base.Seed
  /// + i. Base.Wave and Base.RC.Checkpoint must be null — per-instance
  /// observers are wired from VcdPath / CheckpointPath below.
  SimOptions Base;
  /// When non-empty, instance i streams its VCD to
  /// instancePath(VcdPath, i).
  std::string VcdPath;
  /// When non-empty (and Base.RC.CheckpointEveryFs / CheckpointOnStop
  /// request checkpoints), instance i writes its images atomically to
  /// instancePath(CheckpointPath, i).
  std::string CheckpointPath;
  /// When set, a checkpoint image every instance restores before it
  /// runs (llhd-sim --resume); an empty image fails to restore like any
  /// truncated one.
  std::optional<std::vector<uint8_t>> Resume;
};

/// Collision-free per-instance output naming: "<path>.<index>". Applied
/// to VCD and checkpoint paths so N instances never race on one file.
std::string instancePath(const std::string &Path, unsigned Index);

/// A design compiled once for one engine: the immutable program every
/// instance runs over.
struct BatchProgram {
  std::shared_ptr<const LirProgram> Lir;
  /// Lir runs on BlazeSim, which names itself "blaze" in checkpoints.
  bool Blaze = false;

  explicit operator bool() const { return bool(Lir); }
};

/// Compiles \p Top of \p M for \p O.Engine: the one place an engine name
/// becomes something that runs. interp lowers the module as-is, blaze
/// lowers an (optionally optimised) clone and compiles native code per
/// \p O.Jit. Empty + \p Err on an unknown engine or a failed build.
BatchProgram buildProgram(Module &M, const std::string &Top,
                          const BatchOptions &O, std::string &Err);

/// One instance's outcome.
struct BatchInstance {
  unsigned Index = 0;
  SimStats Stats;
  /// The run's trace digest: equal across engines and equal to a
  /// sequential run with the same seed.
  uint64_t Digest = 0;
  uint64_t Changes = 0;   ///< Committed signal changes in the trace.
  unsigned Signals = 0;   ///< Elaborated signal count.
  /// Elaborated unit-instance count; 0 when the run never started.
  unsigned Instances = 0;
  /// What the JIT bound for this run (Enabled is false off Blaze).
  jit::JitStats Jit;
  /// The VCD writer's counts; Vcd is false when no dump was streamed.
  bool Vcd = false;
  unsigned VcdVars = 0;
  uint64_t VcdChanges = 0; ///< Value-change lines after $dumpvars.
  uint64_t VcdBytes = 0;   ///< Bytes this run wrote to the dump.
  /// Non-empty when this instance failed: its VCD could not be written,
  /// or (with Stats.Stop == StopReason::CheckpointError) its resume image
  /// did not restore or a checkpoint could not be written.
  std::string Error;
};

/// Runs one instance over \p P: \p O.Base with seed \p Seed, its VCD
/// streamed to \p Vcd when non-null, checkpoint images written
/// atomically to \p CheckpointPath when non-empty (at the cadence and on
/// the stops \p O.Base.RC asks for), resuming from \p O.Resume when
/// set.
BatchInstance runInstance(const BatchProgram &P, const BatchOptions &O,
                          uint64_t Seed, std::ostream *Vcd,
                          const std::string &CheckpointPath);

/// Outcome of a whole batch.
struct BatchResult {
  /// False when the shared program failed to build or any instance
  /// errored; Error holds the program-level reason ("" when the failure
  /// is per-instance).
  bool Ok = false;
  std::string Error;
  /// Wall seconds spent building the shared program (elaborate + lower
  /// + JIT) — paid once, not N times.
  double BuildSeconds = 0;
  /// Wall seconds from first instance start to last instance end.
  double RunSeconds = 0;
  std::vector<BatchInstance> Instances;
};

/// Runs \p O.N instances of \p Top over one shared program. \p M is only
/// read during the program build; the worker pool never touches it.
BatchResult runBatch(Module &M, const std::string &Top,
                     const BatchOptions &O);

} // namespace llhd

#endif // LLHD_SIM_BATCH_H
