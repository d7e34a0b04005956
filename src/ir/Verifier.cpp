//===- ir/Verifier.cpp - IR well-formedness checks -------------------------===//

#include "ir/Verifier.h"

#include "analysis/Dominators.h"

#include <map>
#include <optional>
#include <set>

using namespace llhd;

const char *llhd::irLevelName(IRLevel L) {
  switch (L) {
  case IRLevel::Behavioural: return "behavioural";
  case IRLevel::Structural:  return "structural";
  case IRLevel::Netlist:     return "netlist";
  }
  return "";
}

namespace {

/// Per-unit verification state.
class UnitVerifier {
public:
  UnitVerifier(const Unit &U, std::vector<std::string> &Errors)
      : U(U), Errors(Errors) {}

  bool run() {
    size_t Before = Errors.size();
    checkSignature();
    if (U.isDeclaration())
      return Errors.size() == Before;
    if (!U.hasBody()) {
      error("defined unit has no body");
      return false;
    }
    checkBlocks();
    // Definitions must dominate uses; the shared dominator analysis
    // (analysis/Dominators.h) answers the queries. As in LLVM, a use in an
    // unreachable block never runs, so every definition dominates it.
    DT.emplace(const_cast<Unit &>(U));
    for (const BasicBlock *BB : U.blocks())
      for (const Instruction *I : BB->insts())
        checkInst(*I);
    if (U.isEntity())
      checkEntityDrives();
    return Errors.size() == Before;
  }

private:
  void error(const std::string &Msg) {
    Errors.push_back("@" + U.name() + ": " + Msg);
  }
  void error(const Instruction &I, const std::string &Msg) {
    std::string Where = opcodeName(I.opcode());
    if (I.hasName())
      Where += " %" + I.name();
    Errors.push_back("@" + U.name() + ": " + Msg + " in '" + Where + "'");
  }

  void checkSignature() {
    if (U.isFunction()) {
      if (!U.outputs().empty())
        error("functions cannot have outputs");
      return;
    }
    for (const Argument *A : U.inputs())
      if (!A->type()->isSignal())
        error("process/entity input '" + A->name() + "' is not a signal");
    for (const Argument *A : U.outputs())
      if (!A->type()->isSignal())
        error("process/entity output '" + A->name() + "' is not a signal");
    if (!U.returnType()->isVoid())
      error("only functions can have a return type");
  }

  void checkBlocks() {
    if (U.isEntity()) {
      if (U.blocks().size() != 1)
        error("entities have exactly one block");
      for (const Instruction *I : U.entry()->insts())
        if (I->isTerminator())
          error(*I, "terminator in entity body");
      return;
    }
    for (const BasicBlock *BB : U.blocks()) {
      if (BB->empty()) {
        error("block '" + BB->name() + "' is empty");
        continue;
      }
      if (!BB->terminator())
        error("block '" + BB->name() + "' lacks a terminator");
      for (const Instruction *I : BB->insts())
        if (I->isTerminator() && I != BB->back())
          error(*I, "terminator in the middle of a block");
    }
  }

  //===------------------------------------------------------------------===//
  // Dominance.
  //===------------------------------------------------------------------===//

  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    return DT && (!DT->isReachable(B) || DT->dominates(A, B));
  }

  /// True if def at \p Def is visible at use site (\p UseInst, operand to a
  /// phi counts at the incoming block's end).
  bool defDominatesUse(const Instruction *Def, const Instruction *UseInst,
                       unsigned OpIdx) const {
    const BasicBlock *DefBB = Def->parent();
    const BasicBlock *UseBB = UseInst->parent();
    if (UseInst->opcode() == Opcode::Phi) {
      // The value must dominate the end of the incoming block.
      const BasicBlock *Incoming =
          UseInst->incomingBlock(OpIdx / 2);
      return DefBB == Incoming || dominates(DefBB, Incoming);
    }
    if (DefBB == UseBB)
      return DefBB->indexOf(Def) < UseBB->indexOf(UseInst);
    return dominates(DefBB, UseBB);
  }

  //===------------------------------------------------------------------===//
  // Instruction checks.
  //===------------------------------------------------------------------===//

  bool legalInUnit(Opcode Op) const {
    switch (Op) {
    case Opcode::Wait:
    case Opcode::Halt:
      return U.isProcess();
    case Opcode::Ret:
      return U.isFunction();
    case Opcode::Br:
    case Opcode::Phi:
    case Opcode::Var:
    case Opcode::Ld:
    case Opcode::St:
    case Opcode::Alloc:
    case Opcode::Free:
    case Opcode::Call:
      return U.isControlFlow();
    case Opcode::Sig:
    case Opcode::Prb:
    case Opcode::Drv:
      return U.isTimed();
    case Opcode::Reg:
    case Opcode::InstOp:
    case Opcode::Con:
    case Opcode::Del:
      return U.isEntity();
    default:
      return true;
    }
  }

  void checkInst(const Instruction &I) {
    if (!legalInUnit(I.opcode()))
      error(I, std::string("'") + opcodeName(I.opcode()) +
                   "' not allowed in this unit kind");

    // Null operands are always wrong.
    for (unsigned J = 0, E = I.numOperands(); J != E; ++J)
      if (!I.operand(J)) {
        error(I, "null operand");
        return;
      }

    checkOperandTypes(I);

    // Dominance of instruction operands.
    for (unsigned J = 0, E = I.numOperands(); J != E; ++J) {
      const auto *DefI = dyn_cast<Instruction>(I.operand(J));
      if (!DefI)
        continue;
      if (DefI->parentUnit() != &U) {
        error(I, "operand from another unit");
        continue;
      }
      if (U.isEntity())
        continue; // Data-flow graphs have no ordering constraint.
      if (!defDominatesUse(DefI, &I, J))
        error(I, "operand %" + DefI->name() + " does not dominate use");
    }

    // Arguments used must belong to this unit.
    for (unsigned J = 0, E = I.numOperands(); J != E; ++J)
      if (const auto *A = dyn_cast<Argument>(I.operand(J)))
        if (A->parent() != &U)
          error(I, "argument operand from another unit");

    if (I.opcode() == Opcode::Phi)
      checkPhi(I);
  }

  void checkPhi(const Instruction &I) {
    const BasicBlock *BB = I.parent();
    auto Preds = BB->predecessors();
    if (I.numIncoming() != Preds.size()) {
      error(I, "phi incoming count does not match predecessors");
      return;
    }
    for (unsigned J = 0; J != I.numIncoming(); ++J) {
      const BasicBlock *In = I.incomingBlock(J);
      bool Found = false;
      for (const BasicBlock *P : Preds)
        Found |= P == In;
      if (!Found)
        error(I, "phi incoming block is not a predecessor");
    }
  }

  /// Two unconditional drives of the same signal value in one entity body
  /// race every delta cycle: the data-flow evaluation order is
  /// unspecified, so the observed value flips between them. (Conditional
  /// drives and cross-instance conflicts are a design-level question --
  /// the lint multi-drive check handles those with resolution-aware
  /// exemptions; here we reject only the always-wrong intra-entity form.)
  void checkEntityDrives() {
    std::map<const Value *, const Instruction *> FirstDrv;
    for (const Instruction *I : U.entry()->insts()) {
      if (I->opcode() != Opcode::Drv || I->numOperands() == 4)
        continue;
      auto [It, Inserted] = FirstDrv.emplace(I->operand(0), I);
      if (!Inserted)
        error(*I, "duplicate unconditional drive of '" +
                      It->second->operand(0)->name() + "'");
    }
  }

  void checkOperandTypes(const Instruction &I) {
    switch (I.opcode()) {
    case Opcode::Const: {
      Type *Ty = I.type();
      if (!Ty->isInt() && !Ty->isTime() && !Ty->isLogic() && !Ty->isEnum())
        error(I, "invalid constant type");
      if (Ty->isInt() &&
          I.intValue().width() != ::llhd::cast<IntType>(Ty)->width())
        error(I, "constant width mismatch");
      break;
    }
    case Opcode::Drv: {
      auto *ST = dyn_cast<SignalType>(I.operand(0)->type());
      if (!ST) {
        error(I, "drv target is not a signal");
        break;
      }
      if (ST->inner() != I.operand(1)->type())
        error(I, "drv value type mismatch");
      if (!I.operand(2)->type()->isTime())
        error(I, "drv delay is not a time");
      if (I.numOperands() == 4 && !I.operand(3)->type()->isBool())
        error(I, "drv condition is not i1");
      break;
    }
    case Opcode::Prb:
      if (!I.operand(0)->type()->isSignal())
        error(I, "prb operand is not a signal");
      break;
    case Opcode::Br:
      if (I.numOperands() == 3 && !I.operand(0)->type()->isBool())
        error(I, "branch condition is not i1");
      for (unsigned J = I.numOperands() == 1 ? 0 : 1; J != I.numOperands();
           ++J) {
        const auto *Dest = dyn_cast<BasicBlock>(I.operand(J));
        if (!Dest)
          error(I, "branch destination is not a block");
        else if (Dest->parent() != &U)
          error(I, "branch destination in another unit");
      }
      break;
    case Opcode::Wait: {
      // wait %dest [for %time], %observed... -- the destination must be
      // a block of this unit; the edge operands must be signals (what to
      // observe), with at most one time-typed timeout.
      if (I.numOperands() == 0) {
        error(I, "wait without destination block");
        break;
      }
      const auto *Dest = dyn_cast<BasicBlock>(I.operand(0));
      if (!Dest) {
        error(I, "wait destination is not a block");
        break;
      }
      if (Dest->parent() != &U)
        error(I, "wait destination in another unit");
      unsigned Timeouts = 0;
      for (unsigned J = 1; J != I.numOperands(); ++J) {
        Type *Ty = I.operand(J)->type();
        if (Ty->isTime())
          ++Timeouts;
        else if (!Ty->isSignal())
          error(I, "wait operand is neither a signal nor a time");
      }
      if (Timeouts > 1)
        error(I, "wait with more than one timeout");
      break;
    }
    case Opcode::Reg: {
      if (!I.operand(0)->type()->isSignal()) {
        error(I, "reg target is not a signal");
        break;
      }
      int NumOps = (int)I.numOperands();
      for (const RegTrigger &T : I.regTriggers()) {
        if (T.ValueIdx < 0 || T.ValueIdx >= NumOps ||
            T.TriggerIdx < 0 || T.TriggerIdx >= NumOps ||
            T.DelayIdx >= NumOps || T.CondIdx >= NumOps) {
          error(I, "reg trigger operand index out of range");
          continue;
        }
        if (T.DelayIdx >= 0 && !I.operand(T.DelayIdx)->type()->isTime())
          error(I, "reg trigger delay is not a time");
        if (T.CondIdx >= 0 && !I.operand(T.CondIdx)->type()->isBool())
          error(I, "reg trigger condition is not i1");
      }
      break;
    }
    case Opcode::Call: {
      const Unit *Callee = I.callee();
      if (!Callee) {
        error(I, "call without callee");
        break;
      }
      if (!Callee->isIntrinsic() &&
          Callee->inputs().size() != I.numOperands())
        error(I, "call argument count mismatch");
      break;
    }
    case Opcode::InstOp: {
      const Unit *Callee = I.callee();
      if (!Callee) {
        error(I, "inst without callee");
        break;
      }
      if (Callee->isFunction())
        error(I, "inst of a function");
      if (!Callee->isDeclaration() &&
          (Callee->inputs().size() != I.numInputs() ||
           Callee->outputs().size() != I.numOperands() - I.numInputs()))
        error(I, "inst arity mismatch");
      break;
    }
    case Opcode::Ret:
      if (I.numOperands() == 1 &&
          I.operand(0)->type() != U.returnType())
        error(I, "return value type mismatch");
      if (I.numOperands() == 0 && !U.returnType()->isVoid())
        error(I, "missing return value");
      break;
    default:
      if (I.isBinaryArith() || I.isBinaryBitwise() || I.isCompare()) {
        if (I.operand(0)->type() != I.operand(1)->type())
          error(I, "operand type mismatch");
      }
      break;
    }
  }

  const Unit &U;
  std::vector<std::string> &Errors;
  std::optional<DominatorTree> DT;
};

/// Opcode legality for IR levels.
bool opcodeLegalAtLevel(Opcode Op, IRLevel L) {
  if (L == IRLevel::Behavioural)
    return true;
  switch (Op) {
  // Netlist core.
  case Opcode::Const:
  case Opcode::Sig:
  case Opcode::Con:
  case Opcode::Del:
  case Opcode::InstOp:
    return true;
  // Structural extras: pure data flow + prb/drv/reg.
  case Opcode::Prb:
  case Opcode::Drv:
  case Opcode::Reg:
  case Opcode::ArrayCreate:
  case Opcode::StructCreate:
  case Opcode::Mux:
  case Opcode::Insf:
  case Opcode::Extf:
  case Opcode::Inss:
  case Opcode::Exts:
    return L == IRLevel::Structural;
  default: {
    // Arithmetic etc. are structural-only.
    Instruction Probe(Op, nullptr);
    bool Pure = Probe.isPureDataFlow();
    return Pure && L == IRLevel::Structural;
  }
  }
}

} // namespace

bool llhd::verifyUnit(const Unit &U, std::vector<std::string> &Errors) {
  return UnitVerifier(U, Errors).run();
}

bool llhd::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  bool Ok = true;
  for (const auto &U : M.units())
    Ok &= verifyUnit(*U, Errors);
  return Ok;
}

bool llhd::checkUnitLevel(const Unit &U, IRLevel L,
                          std::vector<std::string> &Errors) {
  size_t Before = Errors.size();
  if (L != IRLevel::Behavioural && !U.isEntity() && !U.isDeclaration())
    Errors.push_back("@" + U.name() + ": only entities allowed at " +
                     std::string(irLevelName(L)) + " level");
  for (const BasicBlock *BB : U.blocks())
    for (const Instruction *I : BB->insts())
      if (!opcodeLegalAtLevel(I->opcode(), L))
        Errors.push_back("@" + U.name() + ": '" +
                         opcodeName(I->opcode()) + "' not allowed at " +
                         irLevelName(L) + " level");
  return Errors.size() == Before;
}

bool llhd::checkModuleLevel(const Module &M, IRLevel L,
                            std::vector<std::string> &Errors) {
  bool Ok = true;
  for (const auto &U : M.units())
    Ok &= checkUnitLevel(*U, L, Errors);
  return Ok;
}

IRLevel llhd::classifyModule(const Module &M) {
  std::vector<std::string> Ignored;
  if (checkModuleLevel(M, IRLevel::Netlist, Ignored))
    return IRLevel::Netlist;
  Ignored.clear();
  if (checkModuleLevel(M, IRLevel::Structural, Ignored))
    return IRLevel::Structural;
  return IRLevel::Behavioural;
}
