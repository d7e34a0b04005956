//===- ir/Clone.cpp - Instruction and module cloning ----------------------===//

#include "ir/Clone.h"

#include <unordered_map>

using namespace llhd;

/// Everything \p I carries except its operands.
static Instruction *cloneWithoutOperands(const Instruction *I) {
  auto *C = new Instruction(I->opcode(), I->type(), I->name());
  C->setImmediate(I->immediate());
  C->setCallee(I->callee());
  C->setNumInputs(I->numInputs());
  if (I->opcode() == Opcode::Const) {
    C->setIntValue(I->intValue());
    C->setTimeValue(I->timeValue());
    C->setLogicValue(I->logicValue());
    C->setEnumValue(I->enumValue());
  }
  C->regTriggers() = I->regTriggers();
  return C;
}

Instruction *llhd::cloneInst(const Instruction *I, const ValueMap &VMap) {
  Instruction *C = cloneWithoutOperands(I);
  for (unsigned J = 0, E = I->numOperands(); J != E; ++J) {
    Value *Op = I->operand(J);
    auto It = VMap.find(Op);
    C->appendOperand(It == VMap.end() ? Op : It->second);
  }
  return C;
}

using UnitMap = std::unordered_map<const Unit *, Unit *>;

/// Copies the signature and body of \p Src into the fresh unit \p Dst.
static void cloneUnit(const Unit &Src, Unit &Dst, const UnitMap &Units) {
  std::unordered_map<const Value *, Value *> VMap;
  // Forward operands still to fill in, keyed by the source definition.
  std::unordered_map<const Value *,
                     std::vector<std::pair<Instruction *, unsigned>>>
      Pending;
  for (Argument *A : Src.inputs())
    VMap[A] = Dst.addInput(A->type(), A->name());
  for (Argument *A : Src.outputs())
    VMap[A] = Dst.addOutput(A->type(), A->name());
  // Blocks first: branches and waits may name any block of the unit.
  for (BasicBlock *BB : Src.blocks())
    VMap[BB] = Dst.createBlock(BB->name());
  for (BasicBlock *BB : Src.blocks()) {
    auto *NB = static_cast<BasicBlock *>(VMap[BB]);
    for (Instruction *I : BB->insts()) {
      Instruction *C = cloneWithoutOperands(I);
      auto UIt = Units.find(I->callee());
      C->setCallee(UIt == Units.end() ? nullptr : UIt->second);
      for (unsigned J = 0, E = I->numOperands(); J != E; ++J) {
        Value *Op = I->operand(J);
        auto It = VMap.find(Op);
        if (It != VMap.end()) {
          C->appendOperand(It->second);
          continue;
        }
        // A forward reference (a phi's incoming value, say): filled in
        // when its definition is cloned. The source value is never used,
        // even temporarily.
        C->appendOperand(nullptr);
        if (Op)
          Pending[Op].push_back({C, J});
      }
      NB->append(C);
      VMap[I] = C;
      auto PIt = Pending.find(I);
      if (PIt != Pending.end()) {
        for (auto [User, J] : PIt->second)
          User->setOperand(J, C);
        Pending.erase(PIt);
      }
    }
  }
}

void llhd::cloneModule(const Module &Src, Module &Dst) {
  assert(&Src.context() == &Dst.context() &&
         "a clone must share its source's context");
  assert(Dst.units().empty() && "cloning into a non-empty module");
  // All units first, so that calls and `inst`s can name any of them.
  UnitMap Units;
  for (const auto &UP : Src.units()) {
    const Unit &U = *UP;
    Unit *C;
    if (U.isDeclaration())
      C = Dst.declareUnit(U.kind(), U.name());
    else if (U.isFunction())
      C = Dst.createFunction(U.name());
    else if (U.isProcess())
      C = Dst.createProcess(U.name());
    else
      C = Dst.createEntity(U.name());
    C->setReturnType(U.returnType());
    Units[&U] = C;
  }
  for (const auto &UP : Src.units())
    cloneUnit(*UP, *Units[UP.get()], Units);
}
