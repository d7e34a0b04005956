//===- vsim/CommSim.h - Commercial-simulator stand-in -----------*- C++ -*-===//
//
// The comparison simulator for Table 2. The paper races LLHD-Blaze
// against a closed-source commercial HDL simulator; this repository
// substitutes CommSim (documented in DESIGN.md): an independently
// structured, optimised event-driven engine in the style of classic
// compiled-code simulators — each instruction is compiled at elaboration
// into a closure over a register file, and blocks become closure vectors.
// It shares the value semantics (RtOps) and scheduling kernel with the
// other engines, so cycle-accurate trace equivalence is checkable.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_VSIM_COMMSIM_H
#define LLHD_VSIM_COMMSIM_H

#include "sim/Interp.h"

#include <memory>

namespace llhd {

/// CommSim's compile-once artifact: the elaborated design and lowering
/// (a jit-less LirProgram) plus every unit compiled to closures. Shared,
/// immutable, and safe to run any number of concurrent CommSim instances
/// over. Opaque outside CommSim.cpp.
struct CommProgram;

/// The closure-compiled comparison engine.
class CommSim {
public:
  /// Compiles \p Top of \p M; a failed build leaves the engine invalid,
  /// with the reason in error().
  CommSim(Module &M, const std::string &Top, SimOptions Opts);
  CommSim(Module &M, const std::string &Top);
  /// Batch form: runs over an immutable program from buildProgram(),
  /// shared with any number of concurrent sibling engines. \p Prog must
  /// not be null.
  CommSim(std::shared_ptr<const CommProgram> Prog, SimOptions Opts);
  ~CommSim();

  /// Elaborates \p Top of \p M and compiles every reachable unit to
  /// closures once. Null + \p Err on elaboration failure.
  static std::shared_ptr<const CommProgram>
  buildProgram(Module &M, const std::string &Top, std::string &Err);

  bool valid() const;
  const std::string &error() const;

  /// Runs to completion; after restore(), continues from the
  /// checkpointed instant instead.
  SimStats run();

  /// Live options; mutate before run() to wire run-control hooks.
  SimOptions &options();

  /// Serializes the full runtime state (sim/Checkpoint.h). CommSim runs
  /// the caller's module as-is, so its images interchange with the
  /// reference interpreter's.
  void checkpoint(std::vector<uint8_t> &Out);

  /// Restores a checkpoint() image; false + Err on a version/module
  /// mismatch or a corrupt image.
  bool restore(const std::vector<uint8_t> &In, std::string &Err);

  const Trace &trace() const;
  const SignalTable &signals() const;
  /// The elaborated design this engine simulates.
  const Design &design() const;

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

} // namespace llhd

#endif // LLHD_VSIM_COMMSIM_H
