//===- sim/Program.h - Compiled simulation program --------------*- C++ -*-===//
//
// LirProgram: the compile-once artifact batch simulation shares. It
// bundles the frozen elaborated Design, the eagerly-lowered LIR of every
// reachable unit (instances plus the function call graph), and the JIT
// module compiled from them. Built once by LirProgram::build() and then
// held behind `shared_ptr<const LirProgram>`: N concurrent engine
// instances read it and none writes it, which is what makes
// `llhd-sim --batch=N` safe (see sim/Batch.h and DESIGN.md).
//
// Eager lowering matters for exactly this reason: the lazy LirCache::get
// of a single-run engine would be a data race the first time two batch
// instances called the same not-yet-lowered function.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_PROGRAM_H
#define LLHD_SIM_PROGRAM_H

#include "jit/Jit.h"
#include "sim/Design.h"
#include "sim/Lir.h"

#include <memory>
#include <string>

namespace llhd {

namespace jit {
class JitModule;
} // namespace jit

/// The immutable, shareable compile artifact of one design: elaboration +
/// lowering + native code, produced once and run N times.
struct LirProgram {
  /// The frozen elaborated design (layout only; runs carry their own
  /// SimState).
  Design D;
  /// Lowered LIR of every reachable unit; fully populated by build(),
  /// read-only afterwards (lookup(), not get()).
  LirCache Cache;
  jit::JitOptions JitOpts;
  /// Native code compiled from the admissible process units; null when
  /// the JIT is off or the design is invalid. Immutable after build():
  /// per-run binding state (resolved side-effect sites) lives in
  /// jit::ProcContext, process state in the engines' own LIR frames,
  /// per-run counters in the engines' own JitStats copies.
  std::unique_ptr<jit::JitModule> JitMod;
  /// Keeps frontend artifacts alive for the program's lifetime (e.g.
  /// Blaze's cloned + optimised module and its Context).
  std::shared_ptr<void> Frontend;

  LirProgram();
  ~LirProgram();

  bool ok() const { return D.ok(); }

  /// Lowers every reachable unit of \p D (instances, then the function
  /// call graph to a fixpoint), links each lowering to its callees'
  /// (LirUnit::Callees) and JIT-compiles when \p J asks for it.
  /// Always returns a program; check ok() before running it.
  static std::shared_ptr<const LirProgram>
  build(Design D, jit::JitOptions J = {},
        std::shared_ptr<void> Frontend = nullptr);
};

} // namespace llhd

#endif // LLHD_SIM_PROGRAM_H
