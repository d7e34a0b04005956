//===- blaze/Blaze.h - Accelerated native-code engine ----------*- C++ -*-===//
//
// The accelerated simulator of §6.1. The paper's LLHD-Blaze JIT-compiles
// units to machine code via LLVM; Blaze does the same through the host
// C++ toolchain (src/jit/, DESIGN.md "Native code generation"): it runs
// the LLHD optimisation pipeline over an in-memory clone of the design
// (ir/Clone.h, which prints exactly like the original), lowers it
// to the shared runtime IR (sim/Lir.h), emits every admissible process
// unit as C++, compiles it to a shared object and binds the loaded code
// per instance. Units the code generator does not admit, and every JIT
// failure mode, run on the shared LIR interpreter instead.
//
// Running the resulting program is the reference interpreter's job:
// BlazeSim is an InterpSim that adds only the program build and records
// "blaze" as the engine name in its checkpoints.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_BLAZE_BLAZE_H
#define LLHD_BLAZE_BLAZE_H

#include "jit/Jit.h"
#include "sim/Interp.h"

#include <memory>

namespace llhd {

struct LirProgram;

/// The LLHD-Blaze engine. Its checkpoints are keyed on the optimised
/// clone's hash: they interchange with the other engines only under
/// Optimize = false, where the clone prints exactly like the original.
class BlazeSim : public InterpSim {
public:
  struct BlazeOptions : SimOptions {
    /// Run CF/IS/CSE/DCE over a clone of the design before compiling
    /// (the "JIT with optimisations" configuration; disable for the
    /// ablation bench).
    bool Optimize = true;
    /// Native code generation (src/jit/): on by default; every failure
    /// mode (no host compiler, unsupported ops) falls back to the
    /// interpreted LIR path per process.
    jit::JitOptions Jit{jit::JitOptions::Mode::On, "", ""};
  };

  /// Compiles \p Top of \p M. The module itself is left untouched: the
  /// optimising configuration works on an internal clone. A failed
  /// build leaves the engine invalid, with the reason in error().
  BlazeSim(const Module &M, const std::string &Top, BlazeOptions Opts);
  BlazeSim(const Module &M, const std::string &Top);
  /// Batch form: runs over an immutable program from buildProgram(),
  /// shared with any number of concurrent sibling engines.
  BlazeSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts);

  /// Clones \p M, optimises, elaborates \p Top and compiles the result
  /// into an immutable program (including native code when \p Opts.Jit
  /// enables it). The returned program keeps the optimised clone alive
  /// and can back any number of concurrent BlazeSim instances; \p M is
  /// only read, so concurrent builds may share it. Null + \p Err on
  /// elaboration failure.
  static std::shared_ptr<const LirProgram>
  buildProgram(const Module &M, const std::string &Top,
               const BlazeOptions &Opts, std::string &Err);
};

} // namespace llhd

#endif // LLHD_BLAZE_BLAZE_H
