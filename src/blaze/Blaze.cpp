//===- blaze/Blaze.cpp - Accelerated engine (LLHD-Blaze) -----------------------===//
//
// Blaze's compilation is now a thin pass over the shared lowered runtime
// IR (sim/Lir.h) instead of a second opcode walk over ir::Instruction:
// the engine copies the caller's module in memory (ir/Clone.h; the text
// form is for moving designs between tools, not for copying one inside
// a process), runs the LLHD optimisation pipeline over the clone (the
// paper's "JIT with optimisations" configuration, one notch below LLVM),
// elaborates, lowers and compiles native code, and then runs the program
// through the reference interpreter's own facade (BlazeSim is an
// InterpSim). Engine semantics are therefore shared by construction; what
// distinguishes Blaze is the pre-compilation optimisation and native code
// of the simulated module.
//
//===----------------------------------------------------------------------===//

#include "blaze/Blaze.h"
#include "ir/Clone.h"
#include "passes/Passes.h"
#include "sim/Program.h"

#include <memory>

using namespace llhd;

namespace {
/// The program BlazeSim runs: buildProgram()'s, or an invalid one
/// carrying the build error.
std::shared_ptr<const LirProgram>
buildOrInvalid(const Module &M, const std::string &Top,
               const BlazeSim::BlazeOptions &O) {
  Design Failed;
  std::shared_ptr<const LirProgram> Prog =
      BlazeSim::buildProgram(M, Top, O, Failed.Error);
  return Prog ? Prog : LirProgram::build(std::move(Failed));
}
} // namespace

std::shared_ptr<const LirProgram>
BlazeSim::buildProgram(const Module &M, const std::string &Top,
                       const BlazeOptions &O, std::string &Err) {
  // Clone the module so optimisation does not disturb the caller. The
  // program keeps the clone alive (its units point into it); the clone
  // lives in the caller's Context, which must outlive the program.
  auto Clone = std::make_shared<Module>(M.context(), M.name() + ".blaze");
  cloneModule(M, *Clone);
  if (O.Optimize)
    runStandardOptimizations(*Clone);
  Design D = elaborate(*Clone, Top);
  if (!D.ok()) {
    Err = D.Error;
    return nullptr;
  }
  return LirProgram::build(std::move(D), O.Jit, std::move(Clone));
}

BlazeSim::BlazeSim(const Module &M, const std::string &Top,
                   BlazeOptions Opts)
    : InterpSim(buildOrInvalid(M, Top, Opts), Opts, "blaze") {}

BlazeSim::BlazeSim(const Module &M, const std::string &Top)
    : BlazeSim(M, Top, BlazeOptions()) {}

BlazeSim::BlazeSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts)
    : InterpSim(std::move(Prog), std::move(Opts), "blaze") {}
