//===- blaze/Blaze.h - Accelerated native-code engine ----------*- C++ -*-===//
//
// The accelerated simulator of §6.1. The paper's LLHD-Blaze JIT-compiles
// units to machine code via LLVM; Blaze does the same through the host
// C++ toolchain (src/jit/, DESIGN.md "Native code generation"): it runs
// the LLHD optimisation pipeline over a clone of the design, lowers it
// to the shared runtime IR (sim/Lir.h), emits every admissible process
// unit as C++, compiles it to a shared object and binds the loaded code
// per instance. Units the code generator does not admit, and every JIT
// failure mode, run on the shared LIR interpreter instead.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_BLAZE_BLAZE_H
#define LLHD_BLAZE_BLAZE_H

#include "jit/Jit.h"
#include "sim/Interp.h"

#include <memory>

namespace llhd {

struct LirProgram;

/// The LLHD-Blaze engine.
class BlazeSim {
public:
  struct BlazeOptions : SimOptions {
    /// Run CF/IS/CSE/DCE over a clone of the design before compiling
    /// (the "JIT with optimisations" configuration; disable for the
    /// ablation bench).
    bool Optimize = true;
    /// Native code generation (src/jit/): on by default; every failure
    /// mode (no host compiler, unsupported ops) falls back to the
    /// interpreted LIR path per process.
    jit::JitOptions Jit{jit::JitOptions::Mode::On, ""};
  };

  /// Compiles \p Top of \p M. The module itself is left untouched: the
  /// optimising configuration works on an internal clone.
  BlazeSim(Module &M, const std::string &Top, BlazeOptions Opts);
  BlazeSim(Module &M, const std::string &Top);
  /// Batch form: runs over an immutable program from buildProgram(),
  /// shared with any number of concurrent sibling engines.
  BlazeSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts);
  ~BlazeSim();

  /// Clones \p M, optimises, elaborates \p Top and compiles the result
  /// into an immutable program (including native code when \p Opts.Jit
  /// enables it). The returned program keeps the optimised clone alive
  /// and can back any number of concurrent BlazeSim instances. Null +
  /// \p Err on clone/elaboration failure.
  static std::shared_ptr<const LirProgram>
  buildProgram(Module &M, const std::string &Top, const BlazeOptions &Opts,
               std::string &Err);

  bool valid() const;
  const std::string &error() const;

  /// Runs to completion; after restore(), continues from the
  /// checkpointed instant instead.
  SimStats run();

  /// Live options; mutate before run() to wire run-control hooks.
  SimOptions &options();

  /// Serializes the full runtime state (sim/Checkpoint.h). Blaze images
  /// are keyed on the optimised clone's hash: they interchange with the
  /// other engines only under Optimize = false.
  void checkpoint(std::vector<uint8_t> &Out);

  /// Restores a checkpoint() image; JIT-bound processes rebind their
  /// native state, deopting per instance when the image's resumption
  /// point has no native entry. False + Err on mismatch or corruption.
  bool restore(const std::vector<uint8_t> &In, std::string &Err);

  const Trace &trace() const;
  const SignalTable &signals() const;
  /// The elaborated design this engine simulates.
  const Design &design() const;
  /// What the JIT did at construction (Enabled false when off).
  const jit::JitStats &jitStats() const;
  /// The generated C++ translation unit ("" when nothing was emitted).
  const std::string &jitSource() const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace llhd

#endif // LLHD_BLAZE_BLAZE_H
