//===- ir/Instruction.cpp - LLHD instructions ------------------------------===//

#include "ir/Instruction.h"
#include "ir/BasicBlock.h"
#include "ir/Unit.h"

using namespace llhd;

const char *llhd::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:        return "const";
  case Opcode::ArrayCreate:  return "array";
  case Opcode::StructCreate: return "struct";
  case Opcode::Neg:          return "neg";
  case Opcode::Add:          return "add";
  case Opcode::Sub:          return "sub";
  case Opcode::Mul:          return "mul";
  case Opcode::Udiv:         return "div";
  case Opcode::Sdiv:         return "sdiv";
  case Opcode::Umod:         return "mod";
  case Opcode::Smod:         return "smod";
  case Opcode::Urem:         return "rem";
  case Opcode::Srem:         return "srem";
  case Opcode::Not:          return "not";
  case Opcode::And:          return "and";
  case Opcode::Or:           return "or";
  case Opcode::Xor:          return "xor";
  case Opcode::Shl:          return "shl";
  case Opcode::Shr:          return "shr";
  case Opcode::Ashr:         return "ashr";
  case Opcode::Eq:           return "eq";
  case Opcode::Neq:          return "neq";
  case Opcode::Ult:          return "ult";
  case Opcode::Ugt:          return "ugt";
  case Opcode::Ule:          return "ule";
  case Opcode::Uge:          return "uge";
  case Opcode::Slt:          return "slt";
  case Opcode::Sgt:          return "sgt";
  case Opcode::Sle:          return "sle";
  case Opcode::Sge:          return "sge";
  case Opcode::Mux:          return "mux";
  case Opcode::Zext:         return "zext";
  case Opcode::Sext:         return "sext";
  case Opcode::Trunc:        return "trunc";
  case Opcode::Insf:         return "insf";
  case Opcode::Extf:         return "extf";
  case Opcode::Inss:         return "inss";
  case Opcode::Exts:         return "exts";
  case Opcode::Var:          return "var";
  case Opcode::Ld:           return "ld";
  case Opcode::St:           return "st";
  case Opcode::Alloc:        return "alloc";
  case Opcode::Free:         return "free";
  case Opcode::Sig:          return "sig";
  case Opcode::Prb:          return "prb";
  case Opcode::Drv:          return "drv";
  case Opcode::Con:          return "con";
  case Opcode::Del:          return "del";
  case Opcode::Reg:          return "reg";
  case Opcode::InstOp:       return "inst";
  case Opcode::Call:         return "call";
  case Opcode::Ret:          return "ret";
  case Opcode::Br:           return "br";
  case Opcode::Halt:         return "halt";
  case Opcode::Wait:         return "wait";
  case Opcode::Phi:          return "phi";
  }
  assert(false && "unknown opcode");
  return "";
}

const char *llhd::regModeName(RegMode M) {
  switch (M) {
  case RegMode::Low:  return "low";
  case RegMode::High: return "high";
  case RegMode::Rise: return "rise";
  case RegMode::Fall: return "fall";
  case RegMode::Both: return "both";
  }
  assert(false && "unknown reg mode");
  return "";
}

Unit *Instruction::parentUnit() const {
  return Parent ? Parent->parent() : nullptr;
}

void Instruction::removeFromParent() {
  assert(Parent && "instruction has no parent");
  Parent->remove(this);
}

void Instruction::eraseFromParent() {
  assert(!hasUses() && "erasing an instruction that still has uses");
  if (Parent)
    Parent->remove(this);
  delete this;
}

bool Instruction::isPureDataFlow() const {
  switch (Op) {
  case Opcode::Const:
  case Opcode::ArrayCreate:
  case Opcode::StructCreate:
  case Opcode::Mux:
    return true;
  default:
    return isBinaryArith() || isBinaryBitwise() || isShift() || isCompare() ||
           isCast() || Op == Opcode::Neg || Op == Opcode::Not ||
           Op == Opcode::Insf || Op == Opcode::Inss ||
           // extf/exts are pure only on values; on signals/pointers they
           // produce an alias, which is still side-effect free and
           // movable, so they count as pure here.
           Op == Opcode::Extf || Op == Opcode::Exts;
  }
}

bool Instruction::hasSideEffects() const {
  switch (Op) {
  case Opcode::St:
  case Opcode::Drv:
  case Opcode::Con:
  case Opcode::Del:
  case Opcode::Reg:
  case Opcode::InstOp:
  case Opcode::Call: // Conservative: callee may drive or assert.
  case Opcode::Free:
    return true;
  default:
    return isTerminator();
  }
}

BasicBlock *Instruction::brDest(unsigned I) const {
  assert(Op == Opcode::Br && "not a branch");
  if (numOperands() == 1) {
    assert(I == 0 && "unconditional branch has one destination");
    return cast<BasicBlock>(operand(0));
  }
  assert(I < 2 && "branch destination out of range");
  return cast<BasicBlock>(operand(1 + I));
}

BasicBlock *Instruction::waitDest() const {
  assert(Op == Opcode::Wait && "not a wait");
  return cast<BasicBlock>(operand(0));
}

BasicBlock *Instruction::incomingBlock(unsigned I) const {
  assert(Op == Opcode::Phi && "not a phi");
  return cast<BasicBlock>(operand(2 * I + 1));
}

void Instruction::addIncoming(Value *V, BasicBlock *BB) {
  assert(Op == Opcode::Phi && "not a phi");
  appendOperand(V);
  appendOperand(BB);
}

void Instruction::removeIncoming(unsigned I) {
  assert(Op == Opcode::Phi && "not a phi");
  assert(2 * I + 1 < numOperands() && "incoming index out of range");
  removeOperand(2 * I + 1);
  removeOperand(2 * I);
}
