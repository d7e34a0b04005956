//===- sim/Interp.cpp - Reference interpreter (LLHD-Sim) ----------------------===//
//
// The reference engine executes the shared lowered runtime IR directly
// (sim/Lir.h): units are lowered once at build, and the hot loop walks a
// flat LirOp array with dense slot operands — no ir::Instruction pointer
// chasing. All execution semantics live in sim/LirEngine.cpp; Interp's
// defining property is that it runs the caller's module exactly as given
// (no optimisation pipeline). BlazeSim reuses this facade unchanged over
// its optimised, natively compiled program.
//
//===----------------------------------------------------------------------===//

#include "sim/Interp.h"
#include "sim/LirEngine.h"

#include <memory>

using namespace llhd;

InterpSim::InterpSim(Design D, SimOptions Opts)
    : InterpSim(LirProgram::build(std::move(D)), std::move(Opts)) {}

InterpSim::InterpSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts)
    : InterpSim(std::move(Prog), std::move(Opts), "interp") {}

InterpSim::InterpSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts,
                     const char *EngineName)
    : P(std::make_unique<LirEngine>(std::move(Prog), std::move(Opts))) {
  P->EngineName = EngineName;
  if (P->D.ok())
    P->build();
}

InterpSim::~InterpSim() = default;

bool InterpSim::valid() const { return P->D.ok(); }
const std::string &InterpSim::error() const { return P->D.Error; }
SimStats InterpSim::run() { return valid() ? P->run() : SimStats(); }
SimOptions &InterpSim::options() { return P->Opts; }
void InterpSim::checkpoint(std::vector<uint8_t> &Out) {
  P->checkpoint(Out);
}
bool InterpSim::restore(const std::vector<uint8_t> &In, std::string &Err) {
  return P->restore(In, Err);
}
const Trace &InterpSim::trace() const { return P->Tr; }
const SignalTable &InterpSim::signals() const { return P->Signals; }
const Design &InterpSim::design() const { return P->D; }
const jit::JitStats &InterpSim::jitStats() const { return P->jitStats(); }
const std::string &InterpSim::jitSource() const { return P->jitSource(); }
size_t InterpSim::processCells(uint32_t PI) const {
  return P->procCells(PI);
}
