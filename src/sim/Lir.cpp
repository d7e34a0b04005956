//===- sim/Lir.cpp - Lowered runtime IR ----------------------------------------===//

#include "sim/Lir.h"
#include "ir/Type.h"
#include "sim/Design.h"
#include "sim/RtOps.h"
#include "support/Casting.h"

#include <algorithm>
#include <sstream>

using namespace llhd;

const char *llhd::lirOpcName(LirOpc C) {
  switch (C) {
  case LirOpc::Pure:     return "pure";
  LLHD_LIR_WORD_CASES    return "purew";
  case LirOpc::Prb:      return "prb";
  case LirOpc::PrbW:     return "prbw";
  case LirOpc::Drv:      return "drv";
  case LirOpc::DrvW:     return "drvw";
  case LirOpc::Jmp:      return "jmp";
  case LirOpc::CondJmp:  return "condjmp";
  case LirOpc::CondJmpW: return "condjmpw";
  case LirOpc::Copy:     return "copy";
  case LirOpc::CopyW:    return "copyw";
  case LirOpc::ArrW:     return "purew";
  case LirOpc::Wait:     return "wait";
  case LirOpc::Halt:     return "halt";
  case LirOpc::Ret:      return "ret";
  case LirOpc::Call:     return "call";
  case LirOpc::Var:      return "var";
  case LirOpc::VarW:     return "varw";
  case LirOpc::VarM:     return "varm";
  case LirOpc::Ld:       return "ld";
  case LirOpc::LdW:      return "ldw";
  case LirOpc::LdM:      return "ldm";
  case LirOpc::St:       return "st";
  case LirOpc::StW:      return "stw";
  case LirOpc::StM:      return "stm";
  case LirOpc::Reg:      return "reg";
  case LirOpc::Del:      return "del";
  }
  return "?";
}

namespace {

/// Lowers one unit. This is the single IR-opcode walk all engines share.
class Lowerer {
public:
  explicit Lowerer(Unit &U) { lower(U); }
  LirUnit take() { return std::move(L); }

private:
  /// A value's frame slot is its dense value number.
  int32_t slotOf(Value *V) {
    assert(V->valueNumber() < L.NumValues && "value not numbered");
    return static_cast<int32_t>(V->valueNumber());
  }

  int32_t freshSlot() { return static_cast<int32_t>(L.NumSlots++); }

  uint32_t poolSlots(std::initializer_list<Value *> Vs) {
    uint32_t Base = L.OperandPool.size();
    for (Value *V : Vs)
      L.OperandPool.push_back(slotOf(V));
    return Base;
  }

  void lower(Unit &U) {
    L.U = &U;
    L.NumValues = U.numberValues();
    L.NumSlots = L.NumValues;
    if (U.isEntity())
      lowerEntityBody(U);
    else
      lowerControlFlow(U);
    optimize();
    typeSlots(U);
    typeOps();
    classify();
  }

  //===------------------------------------------------------------------===//
  // Control-flow units (processes and functions)
  //===------------------------------------------------------------------===//

  struct PendingJump {
    uint32_t Pc;
    int WhichTarget; ///< 0 = Jmp0, 1 = Jmp1.
    const BasicBlock *Pred;
    const BasicBlock *Target;
  };

  void lowerControlFlow(Unit &U) {
    // Emit blocks in order, then fix jump targets and insert phi
    // edge-copy trampolines. Blocks are numbered densely, so the pc
    // table is a flat vector.
    std::vector<uint32_t> BlockPc(U.blocks().size(), 0);
    std::vector<PendingJump> Pending;

    for (BasicBlock *BB : U.blocks()) {
      BlockPc[BB->valueNumber()] = L.Ops.size();
      for (Instruction *I : BB->insts())
        emitInst(I, BB, Pending);
    }

    // Edge trampolines: copy phi incomings staged through scratch slots.
    // Keyed by (pred, target) block numbers; the edge count is small, so
    // a linear scan over a flat vector beats a node-based map.
    std::vector<std::pair<uint64_t, uint32_t>> EdgePc;
    for (PendingJump &PJ : Pending) {
      uint64_t Key = (uint64_t(PJ.Pred->valueNumber()) << 32) |
                     PJ.Target->valueNumber();
      uint32_t TargetPc;
      auto EIt = std::find_if(
          EdgePc.begin(), EdgePc.end(),
          [Key](const auto &P) { return P.first == Key; });
      if (EIt != EdgePc.end()) {
        TargetPc = EIt->second;
      } else {
        // Collect phi copies for this edge.
        std::vector<std::pair<int32_t, int32_t>> Copies; // (src, phi).
        for (Instruction *I : PJ.Target->insts()) {
          if (I->opcode() != Opcode::Phi)
            continue;
          for (unsigned J = 0; J != I->numIncoming(); ++J)
            if (I->incomingBlock(J) == PJ.Pred)
              Copies.push_back({slotOf(I->incomingValue(J)), slotOf(I)});
        }
        if (Copies.empty()) {
          TargetPc = BlockPc[PJ.Target->valueNumber()];
        } else {
          TargetPc = L.Ops.size();
          // Stage all reads first so phi-reads-phi is safe.
          std::vector<int32_t> Scratch;
          for (auto &[SrcS, PhiS] : Copies) {
            int32_t Tmp = freshSlot();
            Scratch.push_back(Tmp);
            LirOp Op;
            Op.C = LirOpc::Copy;
            Op.Dst = Tmp;
            Op.A = SrcS;
            L.Ops.push_back(Op);
          }
          for (unsigned J = 0; J != Copies.size(); ++J) {
            LirOp Op;
            Op.C = LirOpc::Copy;
            Op.Dst = Copies[J].second;
            Op.A = Scratch[J];
            L.Ops.push_back(Op);
          }
          LirOp Jump;
          Jump.C = LirOpc::Jmp;
          Jump.Jmp0 = BlockPc[PJ.Target->valueNumber()];
          L.Ops.push_back(Jump);
        }
        EdgePc.push_back({Key, TargetPc});
      }
      if (PJ.WhichTarget == 0)
        L.Ops[PJ.Pc].Jmp0 = TargetPc;
      else
        L.Ops[PJ.Pc].Jmp1 = TargetPc;
    }
  }

  void emitInst(Instruction *I, BasicBlock *BB,
                std::vector<PendingJump> &Pending) {
    switch (I->opcode()) {
    case Opcode::Const:
      L.ConstSlots.push_back({(uint32_t)slotOf(I), constValue(*I)});
      return;
    case Opcode::Phi:
      (void)slotOf(I); // Filled by edge copies.
      return;
    case Opcode::Prb: {
      LirOp Op;
      Op.C = LirOpc::Prb;
      Op.Dst = slotOf(I);
      Op.A = slotOf(I->operand(0));
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Drv: {
      LirOp Op;
      Op.C = LirOpc::Drv;
      Op.A = slotOf(I->operand(0));
      Op.B = slotOf(I->operand(1));
      Op.Cc = slotOf(I->operand(2));
      Op.Dd = I->numOperands() == 4 ? slotOf(I->operand(3)) : -1;
      Op.Origin = I;
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Br: {
      LirOp Op;
      if (I->numOperands() == 1) {
        Op.C = LirOpc::Jmp;
        L.Ops.push_back(Op);
        Pending.push_back({(uint32_t)L.Ops.size() - 1, 0, BB,
                           cast<BasicBlock>(I->operand(0))});
      } else {
        Op.C = LirOpc::CondJmp;
        Op.A = slotOf(I->operand(0));
        L.Ops.push_back(Op);
        Pending.push_back(
            {(uint32_t)L.Ops.size() - 1, 0, BB, I->brDest(0)});
        Pending.push_back(
            {(uint32_t)L.Ops.size() - 1, 1, BB, I->brDest(1)});
      }
      return;
    }
    case Opcode::Wait: {
      LirOp Op;
      Op.C = LirOpc::Wait;
      Op.OpsBase = L.OperandPool.size();
      for (unsigned J = 1, E = I->numOperands(); J != E; ++J) {
        if (I->operand(J)->type()->isTime()) {
          Op.A = slotOf(I->operand(J));
        } else {
          L.OperandPool.push_back(slotOf(I->operand(J)));
          ++Op.OpsCount;
        }
      }
      L.Ops.push_back(Op);
      Pending.push_back(
          {(uint32_t)L.Ops.size() - 1, 0, BB, I->waitDest()});
      return;
    }
    case Opcode::Halt: {
      LirOp Op;
      Op.C = LirOpc::Halt;
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Ret: {
      LirOp Op;
      Op.C = LirOpc::Ret;
      Op.A = I->numOperands() == 1 ? slotOf(I->operand(0)) : -1;
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Call: {
      LirOp Op;
      Op.C = LirOpc::Call;
      Op.Dst = I->type()->isVoid() ? -1 : slotOf(I);
      Op.OpsBase = L.OperandPool.size();
      Op.OpsCount = I->numOperands();
      for (unsigned J = 0; J != I->numOperands(); ++J)
        L.OperandPool.push_back(slotOf(I->operand(J)));
      Op.Callee = I->callee();
      if (Op.Callee)
        Op.Intr = intrinsicKind(*Op.Callee);
      Op.Origin = I;
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Var:
    case Opcode::Alloc: {
      LirOp Op;
      Op.C = LirOpc::Var;
      Op.Dst = slotOf(I);
      Op.A = slotOf(I->operand(0));
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Ld: {
      LirOp Op;
      Op.C = LirOpc::Ld;
      Op.Dst = slotOf(I);
      Op.A = slotOf(I->operand(0));
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::St: {
      LirOp Op;
      Op.C = LirOpc::St;
      Op.A = slotOf(I->operand(0));
      Op.B = slotOf(I->operand(1));
      L.Ops.push_back(Op);
      return;
    }
    case Opcode::Free:
      return; // Cells live until the frame dies.
    default:
      emitPure(I);
      return;
    }
  }

  void emitPure(Instruction *I) {
    assert(I->isPureDataFlow() && "unexpected opcode");
    LirOp Op;
    Op.C = LirOpc::Pure;
    Op.IrOp = I->opcode();
    Op.Dst = slotOf(I);
    Op.Imm = I->immediate();
    Op.Width = pureResultWidth(*I);
    Op.Origin = I;
    Op.OpsBase = L.OperandPool.size();
    Op.OpsCount = I->numOperands();
    for (unsigned J = 0; J != I->numOperands(); ++J)
      L.OperandPool.push_back(slotOf(I->operand(J)));
    L.Ops.push_back(Op);
  }

  //===------------------------------------------------------------------===//
  // Entity bodies
  //===------------------------------------------------------------------===//

  void lowerEntityBody(Unit &U) {
    for (Instruction *I : U.entityBlock()->insts()) {
      switch (I->opcode()) {
      case Opcode::Sig:
      case Opcode::Con:
      case Opcode::InstOp:
        (void)slotOf(I); // Elaborated (sig slots hold bindings).
        continue;
      case Opcode::Extf:
      case Opcode::Exts:
        if (I->type()->isSignal()) {
          (void)slotOf(I); // Sub-signal bound at elaboration.
          continue;
        }
        emitPure(I);
        continue;
      case Opcode::Const:
        L.ConstSlots.push_back({(uint32_t)slotOf(I), constValue(*I)});
        continue;
      case Opcode::Prb: {
        LirOp Op;
        Op.C = LirOpc::Prb;
        Op.Dst = slotOf(I);
        Op.A = slotOf(I->operand(0));
        L.Ops.push_back(Op);
        continue;
      }
      case Opcode::Drv: {
        LirOp Op;
        Op.C = LirOpc::Drv;
        Op.A = slotOf(I->operand(0));
        Op.B = slotOf(I->operand(1));
        Op.Cc = slotOf(I->operand(2));
        Op.Dd = I->numOperands() == 4 ? slotOf(I->operand(3)) : -1;
        Op.Origin = I;
        L.Ops.push_back(Op);
        continue;
      }
      case Opcode::Reg: {
        LirOp Op;
        Op.C = LirOpc::Reg;
        Op.A = slotOf(I->operand(0)); // Target signal.
        Op.Imm = L.NumRegPrev;        // Previous-sample base index.
        Op.TrigBase = L.TriggerPool.size();
        Op.TrigCount = I->regTriggers().size();
        for (const RegTrigger &T : I->regTriggers()) {
          LirTrigger LT;
          LT.Mode = T.Mode;
          LT.Value = slotOf(I->operand(T.ValueIdx));
          LT.Trig = slotOf(I->operand(T.TriggerIdx));
          LT.Delay =
              T.DelayIdx >= 0 ? slotOf(I->operand(T.DelayIdx)) : -1;
          LT.Cond = T.CondIdx >= 0 ? slotOf(I->operand(T.CondIdx)) : -1;
          L.TriggerPool.push_back(LT);
        }
        L.NumRegPrev += I->regTriggers().size();
        Op.Origin = I;
        L.Ops.push_back(Op);
        continue;
      }
      case Opcode::Del: {
        LirOp Op;
        Op.C = LirOpc::Del;
        Op.A = slotOf(I->operand(0));
        Op.B = slotOf(I->operand(1));
        Op.Cc = slotOf(I->operand(2));
        Op.Imm = L.NumDelPrev++; // Previous-sample index.
        Op.Origin = I;
        L.Ops.push_back(Op);
        continue;
      }
      default:
        emitPure(I);
        continue;
      }
    }
  }

  //===------------------------------------------------------------------===//
  // LIR-level cleanup
  //===------------------------------------------------------------------===//

  void optimize() {
    // Thread jump chains: a target that lands on a Jmp is retargeted to
    // that Jmp's destination (bounded walk, safe on jump cycles).
    auto thread = [&](int32_t T) {
      for (int Guard = 0;
           Guard != 64 && T >= 0 && L.Ops[T].C == LirOpc::Jmp; ++Guard)
        T = L.Ops[T].Jmp0;
      return T;
    };
    for (LirOp &Op : L.Ops) {
      if (Op.Jmp0 >= 0)
        Op.Jmp0 = thread(Op.Jmp0);
      if (Op.Jmp1 >= 0)
        Op.Jmp1 = thread(Op.Jmp1);
    }

    // Drop fall-through jumps (Jmp to the next pc), iterating because a
    // removal can make the next jump adjacent to its target. This is
    // what turns the canonical single-block-loop process (entry `br`
    // into the body) into a straight-line op run the classifier can see.
    while (true) {
      std::vector<int32_t> NewPc(L.Ops.size());
      int32_t N = 0;
      bool Any = false;
      for (size_t I = 0; I != L.Ops.size(); ++I) {
        NewPc[I] = N;
        const LirOp &Op = L.Ops[I];
        if (Op.C == LirOpc::Jmp && Op.Jmp0 == (int32_t)I + 1)
          Any = true; // Dropped: NewPc maps it onto the next kept op.
        else
          ++N;
      }
      if (!Any)
        break;
      std::vector<LirOp> Kept;
      Kept.reserve(N);
      for (size_t I = 0; I != L.Ops.size(); ++I) {
        LirOp Op = L.Ops[I];
        if (Op.C == LirOpc::Jmp && Op.Jmp0 == (int32_t)I + 1)
          continue;
        if (Op.Jmp0 >= 0)
          Op.Jmp0 = NewPc[Op.Jmp0];
        if (Op.Jmp1 >= 0)
          Op.Jmp1 = NewPc[Op.Jmp1];
        Kept.push_back(std::move(Op));
      }
      L.Ops = std::move(Kept);
    }
  }

  //===------------------------------------------------------------------===//
  // Slot typing
  //===------------------------------------------------------------------===//

  /// Records every slot's static IR type and file: arguments and
  /// instructions carry their value numbers; phi-staging scratch slots
  /// take their type from the Copy that writes them.
  void typeSlots(Unit &U) {
    L.Slots.assign(L.NumSlots, LirSlot());
    auto note = [&](const Value *V) {
      uint32_t S = V->valueNumber();
      if (S < L.NumSlots)
        L.Slots[S].Ty = V->type();
    };
    for (Argument *A : U.inputs())
      note(A);
    for (Argument *A : U.outputs())
      note(A);
    for (BasicBlock *B : U.blocks())
      for (Instruction *I : B->insts())
        note(I);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (const LirOp &Op : L.Ops)
        if (Op.C == LirOpc::Copy && Op.Dst >= 0 && !L.Slots[Op.Dst].Ty &&
            L.Slots[Op.A].Ty) {
          L.Slots[Op.Dst].Ty = L.Slots[Op.A].Ty;
          Changed = true;
        }
    }
    for (LirSlot &S : L.Slots) {
      auto *AT = dyn_cast_if_present<ArrayType>(S.Ty);
      if (isWordType(S.Ty)) {
        S.Word = true;
        S.Width = static_cast<uint8_t>(S.Ty->bitWidth());
        S.Len = 1;
      } else if (AT && AT->length() && isWordType(AT->element())) {
        S.Width = static_cast<uint8_t>(AT->element()->bitWidth());
        S.Len = AT->length();
      }
    }
  }

  bool word(int32_t S) const { return S >= 0 && L.Slots[S].Word; }
  bool inWords(int32_t S) const { return S >= 0 && L.Slots[S].Len; }
  unsigned width(int32_t S) const { return L.Slots[S].Width; }

  /// Calls \p F(slot, IsAddress) for every slot \p Op reads; IsAddress
  /// marks the pointer operand of ld/st.
  template <typename Fn> void forEachRead(const LirOp &Op, Fn &&F) const {
    for (int32_t S : {Op.A, Op.B, Op.Cc, Op.Dd})
      if (S >= 0)
        F(S, S == Op.A && (Op.C == LirOpc::Ld || Op.C == LirOpc::St));
    if (Op.C == LirOpc::Pure || Op.C == LirOpc::Wait || Op.C == LirOpc::Call)
      for (uint32_t J = 0; J != Op.OpsCount; ++J)
        F(L.OperandPool[Op.OpsBase + J], false);
    for (uint32_t J = 0; J != Op.TrigCount; ++J) {
      const LirTrigger &T = L.TriggerPool[Op.TrigBase + J];
      for (int32_t S : {T.Value, T.Trig, T.Delay, T.Cond})
        if (S >= 0)
          F(S, false);
    }
  }

  /// Picks each op's file form, gives every var whose pointer is only a
  /// ld/st address its fixed cell, lays the word file out (every word
  /// array's words past the slots and cells) and splits the constant
  /// preloads by file.
  void typeOps() {
    std::vector<char> Escapes(L.NumSlots, 0);
    for (const LirOp &Op : L.Ops)
      forEachRead(Op, [&](int32_t S, bool Addr) {
        if (!Addr)
          Escapes[S] = 1;
      });
    // Cells first, in pc order: a ld may sit at a lower pc than its var.
    std::vector<int32_t> CellOf(L.NumSlots, -1); // Pointer slot -> cell.
    for (LirOp &Op : L.Ops) {
      if (Op.C != LirOpc::Var)
        continue;
      if (Escapes[Op.Dst]) {
        Op.C = LirOpc::VarM;
        L.HasMemory = true;
        continue;
      }
      Op.Imm = CellOf[Op.Dst] = L.NumSlots + L.NumCells++;
      L.Slots.push_back(L.Slots[Op.A]);
      if (word(Op.A))
        Op.C = LirOpc::VarW;
    }
    L.NumWords = L.fileSize();
    for (uint32_t S = 0; S != L.Slots.size(); ++S) {
      LirSlot &Sl = L.Slots[S];
      Sl.Base = Sl.Word ? S : L.NumWords;
      if (!Sl.Word)
        L.NumWords += Sl.Len;
    }

    for (LirOp &Op : L.Ops) {
      switch (Op.C) {
      case LirOpc::Pure: {
        const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
        unsigned N = Op.OpsCount, RW;
        if (arrayOp(Op)) {
          Op.C = LirOpc::ArrW;
          break;
        }
        if (!word(Op.Dst) || N - 1u >= 2u || !word(Ops[0]) ||
            !word(Ops[N - 1]))
          break;
        unsigned Wa = width(Ops[0]), Wb = N == 2 ? width(Ops[1]) : 0;
        if (!wordPure(Op.IrOp, N, Wa, Wb, Op.Width, RW) ||
            RW != width(Op.Dst))
          break;
        Op.C = wordOpc(Op.IrOp);
        Op.A = Ops[0];
        Op.B = Ops[N - 1];
        Op.WidthA = Wa;
        Op.WidthB = Wb;
        Op.Width = RW;
        break;
      }
      case LirOpc::Prb:
        if (word(Op.Dst))
          Op.C = LirOpc::PrbW;
        break;
      case LirOpc::Drv:
        if (word(Op.B)) {
          Op.C = LirOpc::DrvW;
          Op.Width = width(Op.B);
        }
        break;
      case LirOpc::CondJmp:
        if (word(Op.A))
          Op.C = LirOpc::CondJmpW;
        break;
      case LirOpc::Copy:
        if (word(Op.Dst) && word(Op.A) && width(Op.Dst) == width(Op.A))
          Op.C = LirOpc::CopyW;
        break;
      case LirOpc::Ld:
      case LirOpc::St: {
        bool IsLd = Op.C == LirOpc::Ld;
        int32_t Cell = CellOf[Op.A], Val = IsLd ? Op.Dst : Op.B;
        if (Cell < 0) {
          Op.C = IsLd ? LirOpc::LdM : LirOpc::StM;
          L.HasMemory = true;
          break;
        }
        Op.Imm = Cell;
        if (word(Cell) && word(Val) && width(Cell) == width(Val))
          Op.C = IsLd ? LirOpc::LdW : LirOpc::StW;
        break;
      }
      default:
        break;
      }
    }

    std::vector<std::pair<uint32_t, RtValue>> Boxed;
    for (auto &[Slot, V] : L.ConstSlots) {
      if (word(Slot) && V.isInt())
        L.ConstWords.push_back({Slot, V.intValue().zextToU64()});
      else
        Boxed.push_back({Slot, std::move(V)});
    }
    L.ConstSlots = std::move(Boxed);
  }

  /// True when the pure op \p Op is an array operation over word arrays
  /// and word slots only (LirOpc::ArrW).
  bool arrayOp(const LirOp &Op) const {
    const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
    switch (Op.IrOp) {
    case Opcode::ArrayCreate:
    case Opcode::Extf:
    case Opcode::Exts:
    case Opcode::Insf:
    case Opcode::Inss:
    case Opcode::Mux:
      break;
    default:
      return false;
    }
    if (!inWords(Op.Dst) || (word(Op.Dst) && word(Ops[0])))
      return false;
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      if (!inWords(Ops[J]))
        return false;
    return true;
  }

  //===------------------------------------------------------------------===//
  // Classification
  //===------------------------------------------------------------------===//

  void classify() {
    if (!L.U->isProcess())
      return;
    const LirOp *Wait = nullptr;
    for (const LirOp &Op : L.Ops) {
      if (Op.C != LirOpc::Wait)
        continue;
      if (Wait || Op.A >= 0)
        return; // Several waits or a timer: dynamic.
      Wait = &Op;
    }
    if (!Wait)
      return;

    // Static sensitivity: no instruction ever writes an observed slot
    // (observed signals are preloaded bindings, not recomputed values).
    std::vector<char> Written(L.NumSlots, 0);
    for (const LirOp &Op : L.Ops)
      if (Op.Dst >= 0)
        Written[Op.Dst] = 1;
    for (uint32_t J = 0; J != Wait->OpsCount; ++J)
      if (Written[L.OperandPool[Wait->OpsBase + J]])
        return;

    L.StableWait = true;
  }

  LirUnit L;
};

} // namespace

LirUnit llhd::lowerUnit(Unit &U) {
  Lowerer Low(U);
  return Low.take();
}

//===----------------------------------------------------------------------===//
// Dump
//===----------------------------------------------------------------------===//

std::string LirUnit::dump() const {
  std::ostringstream OS;
  const char *Kind = U->isProcess() ? "process"
                     : U->isEntity() ? "entity"
                                     : "func";
  OS << "lir " << Kind << " @" << U->name() << " {\n";
  uint32_t NumWordSlots = 0;
  for (const LirSlot &S : Slots)
    NumWordSlots += S.Word;
  OS << "  slots: " << NumSlots << " (values " << NumValues << ")"
     << "  cells: " << NumCells << "  words: " << NumWordSlots
     << "  regprev: " << NumRegPrev << "  delprev: " << NumDelPrev
     << "\n";
  if (U->isProcess())
    OS << "  sensitivity: " << (StableWait ? "stable" : "dynamic") << "\n";
  // A word slot prints as w[N], a word array as w[First..Last], an
  // RtValue slot as [N]: the indices are the file's that holds it.
  auto slot = [&](int32_t S) {
    if (S < 0 || !Slots[S].Len)
      return "[" + std::to_string(S) + "]";
    const LirSlot &Sl = Slots[S];
    return "w[" + std::to_string(Sl.Base) +
           (Sl.Word ? "" : ".." + std::to_string(Sl.Base + Sl.Len - 1)) +
           "]";
  };
  for (const auto &[Slot, V] : ConstSlots)
    OS << "  const " << slot(Slot) << " = " << V.toString() << "\n";
  for (const auto &[Word, V] : ConstWords)
    OS << "  const w[" << Word << "] = " << V << "\n";
  auto span = [&](uint32_t Base, uint32_t Count) {
    std::string S = "(";
    for (uint32_t J = 0; J != Count; ++J)
      S += (J ? ", " : "") + slot(OperandPool[Base + J]);
    return S + ")";
  };
  for (size_t I = 0; I != Ops.size(); ++I) {
    const LirOp &Op = Ops[I];
    // Every op but halt has operands ("ret void" included).
    OS << "  " << I << ": " << lirOpcName(Op.C)
       << (Op.C == LirOpc::Halt ? "" : " ");
    switch (Op.C) {
    case LirOpc::Pure:
    case LirOpc::ArrW:
      OS << opcodeName(Op.IrOp) << " " << slot(Op.Dst)
         << ", ops=" << span(Op.OpsBase, Op.OpsCount);
      if (Op.Imm)
        OS << " imm=" << Op.Imm;
      break;
    LLHD_LIR_WORD_CASES
      OS << opcodeName(Op.IrOp) << " " << slot(Op.Dst) << ", "
         << slot(Op.A);
      if (Op.OpsCount == 2)
        OS << ", " << slot(Op.B);
      if (Op.Imm)
        OS << " imm=" << Op.Imm;
      break;
    case LirOpc::Prb:
    case LirOpc::PrbW:
    case LirOpc::Copy:
    case LirOpc::CopyW:
    case LirOpc::VarM:
    case LirOpc::LdM:
      OS << slot(Op.Dst) << ", " << slot(Op.A);
      break;
    case LirOpc::Drv:
    case LirOpc::DrvW:
      OS << slot(Op.A) << ", " << slot(Op.B) << " after " << slot(Op.Cc);
      if (Op.Dd >= 0)
        OS << " if " << slot(Op.Dd);
      break;
    case LirOpc::Jmp:
      OS << "@" << Op.Jmp0;
      break;
    case LirOpc::CondJmp:
    case LirOpc::CondJmpW:
      OS << slot(Op.A) << " ? @" << Op.Jmp1 << " : @" << Op.Jmp0;
      break;
    case LirOpc::Wait:
      OS << "resume=@" << Op.Jmp0;
      if (Op.A >= 0)
        OS << " timeout=" << slot(Op.A);
      OS << " obs=" << span(Op.OpsBase, Op.OpsCount);
      break;
    case LirOpc::Halt:
      break;
    case LirOpc::Ret:
      OS << (Op.A >= 0 ? slot(Op.A) : "void");
      break;
    case LirOpc::Call:
      if (Op.Dst >= 0)
        OS << slot(Op.Dst) << ", ";
      OS << "@" << (Op.Callee ? Op.Callee->name() : "?")
         << " args=" << span(Op.OpsBase, Op.OpsCount);
      break;
    case LirOpc::Var:
    case LirOpc::VarW:
      OS << slot(Op.Imm) << ", " << slot(Op.A) << " ptr=" << slot(Op.Dst);
      break;
    case LirOpc::Ld:
    case LirOpc::LdW:
      OS << slot(Op.Dst) << ", " << slot(Op.Imm) << " ptr=" << slot(Op.A);
      break;
    case LirOpc::St:
    case LirOpc::StW:
      OS << slot(Op.Imm) << ", " << slot(Op.B) << " ptr=" << slot(Op.A);
      break;
    case LirOpc::StM:
      OS << slot(Op.A) << ", " << slot(Op.B);
      break;
    case LirOpc::Reg:
      OS << slot(Op.A) << " base=" << Op.Imm;
      for (uint32_t J = 0; J != Op.TrigCount; ++J) {
        const LirTrigger &T = TriggerPool[Op.TrigBase + J];
        OS << (J ? ", " : " ") << "{" << regModeName(T.Mode) << " "
           << slot(T.Value) << " on " << slot(T.Trig);
        if (T.Delay >= 0)
          OS << " after " << slot(T.Delay);
        if (T.Cond >= 0)
          OS << " if " << slot(T.Cond);
        OS << "}";
      }
      break;
    case LirOpc::Del:
      OS << slot(Op.A) << ", " << slot(Op.B) << " after " << slot(Op.Cc)
         << " base=" << Op.Imm;
      break;
    }
    OS << "\n";
  }
  OS << "}\n";
  return OS.str();
}

void LirUnit::preload(const UnitInstance &UI, std::vector<uint64_t> &Words,
                      std::vector<RtValue> &Frame) const {
  Words.assign(NumWords, 0);
  Frame.assign(fileSize(), RtValue());
  for (const auto &[Slot, V] : ConstWords)
    Words[Slot] = V;
  for (const auto &[Slot, V] : ConstSlots)
    Frame[Slot] = V;
  for (const auto &[Val, Ref] : UI.Bindings) {
    uint32_t Slot = Val->valueNumber();
    if (Slot < NumValues)
      Frame[Slot] = RtValue(Ref);
  }
}

void llhd::execPure(const LirUnit &L, const LirOp &Op, uint64_t *W,
                    RtValue *F) {
  const int32_t *Idx = L.OperandPool.data() + Op.OpsBase;
  for (uint32_t J = 0; J != Op.OpsCount; ++J)
    L.boxed(Idx[J], W, F);
  // The destination is the op's own slot, never an operand's, so the
  // in-place paths may write it while reading the operands.
  RtValue &D = F[Op.Dst];
  const RtValue *R = Op.OpsCount == 2 ? &F[Idx[1]] : nullptr;
  if (Op.OpsCount - 1u >= 2u ||
      (!evalIntFast(Op.IrOp, F[Idx[0]], R, Op.Imm, Op.Width, D) &&
       !(R && insertInPlace(Op.IrOp, F[Idx[0]], *R, Op.Imm, D))))
    D = evalPureWide(Op.IrOp, F, Idx, Op.OpsCount, Op.Imm, Op.Width,
                     Op.Origin);
  const LirSlot &Sl = L.Slots[Op.Dst];
  if (Sl.Word)
    W[Op.Dst] = D.isInt() ? D.intValue().zextToU64() : 0;
  else if (Sl.Len)
    unpackWords(D, W + Sl.Base, Sl.Len);
}

void llhd::execArrW(const LirUnit &L, const LirOp &Op, uint64_t *W) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  const LirSlot &D = L.Slots[Op.Dst], &A = L.Slots[Ops[0]];
  uint64_t *Out = W + D.Base;
  switch (Op.IrOp) {
  case Opcode::ArrayCreate:
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      Out[J] = W[Ops[J]];
    break;
  case Opcode::Mux: // An index past the end reads the last element.
    *Out = W[A.Base + std::min<uint64_t>(W[Ops[1]], A.Len - 1)];
    break;
  case Opcode::Extf:
  case Opcode::Exts:
    std::copy_n(W + A.Base + Op.Imm, D.Len, Out);
    break;
  default: { // Insf, Inss: the first operand with the second's words at Imm.
    const LirSlot &B = L.Slots[Ops[1]];
    std::copy_n(W + A.Base, D.Len, Out);
    std::copy_n(W + B.Base, B.Len, Out + Op.Imm);
    break;
  }
  }
}
