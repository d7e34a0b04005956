//===- sim/Program.cpp - Compiled simulation program ---------------------------===//

#include "sim/Program.h"
#include "ir/Module.h"
#include "jit/Runtime.h"

#include <algorithm>
#include <vector>

using namespace llhd;

LirProgram::LirProgram() = default;
LirProgram::~LirProgram() = default;

std::shared_ptr<const LirProgram>
LirProgram::build(Design D, jit::JitOptions J,
                  std::shared_ptr<void> Frontend) {
  auto P = std::make_shared<LirProgram>();
  P->D = std::move(D);
  P->JitOpts = std::move(J);
  P->Frontend = std::move(Frontend);
  if (!P->D.ok())
    return P;

  // Eagerly lower every reachable unit: the instantiated units, then —
  // to a fixpoint — every function their Call ops can reach. After this
  // the cache is never written again, so concurrent runs share it.
  std::vector<Unit *> Work, Seen;
  auto enqueue = [&](Unit *U) {
    if (!U || U->isIntrinsic() || U->isDeclaration())
      return;
    if (std::find(Seen.begin(), Seen.end(), U) != Seen.end())
      return;
    Seen.push_back(U);
    Work.push_back(U);
  };
  for (const UnitInstance &UI : P->D.Instances)
    enqueue(UI.U);
  while (!Work.empty()) {
    Unit *U = Work.back();
    Work.pop_back();
    const LirUnit &L = P->Cache.get(U);
    for (const LirOp &Op : L.Ops)
      if (Op.C == LirOpc::Call)
        enqueue(Op.Callee);
  }
  // Every unit can now reach its callees' lowerings directly (the JIT
  // plans callees through this link, with or without native code).
  P->Cache.linkCallees();

  if (P->JitOpts.M != jit::JitOptions::Mode::Off) {
    P->JitMod = std::make_unique<jit::JitModule>(P->JitOpts);
    P->JitMod->compile(P->D, P->Cache);
  }
  return P;
}
