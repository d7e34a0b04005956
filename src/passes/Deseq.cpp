//===- passes/Deseq.cpp - Desequentialisation ---------------------------------===//
//
// Deseq (§4.6): recognises flip-flops and latches in two-TR processes.
// TCM canonicalises such processes into
//
//   init:  %t0 = prb %trig ...         ; "past" samples (TR0)
//          wait %check for %trig, ...
//   check: %t1 = prb %trig ...         ; "present" samples (TR1)
//          drv %sig, %v after %d if %cond
//          br %init
//
// The drive condition is put in DNF. Terms containing a past/present
// sample pair of one signal are edge triggers (¬T0∧T1 rise, T0∧¬T1
// fall); remaining literals become level triggers or gating conditions.
// Each recognised drive turns into a `reg` in a fresh entity.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dnf.h"
#include "analysis/TemporalRegions.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "passes/Passes.h"

#include <map>
#include <set>

using namespace llhd;

namespace {

/// Redirects all `inst` references of \p From to \p To, erases \p From
/// and renames \p To to \p From's name.
void replaceUnit(Module &M, Unit *From, Unit *To) {
  for (const auto &UP : M.units())
    for (BasicBlock *BB : UP->blocks())
      for (Instruction *I : BB->insts())
        if (I->callee() == From)
          I->setCallee(To);
  std::string Name = From->name();
  M.eraseUnit(From);
  M.renameUnit(To, Name);
}

class Desequentializer {
public:
  Desequentializer(Module &M, Unit &U, std::vector<std::string> &Notes)
      : M(M), U(U), Notes(Notes) {}

  bool run() {
    if (!U.isProcess() || !U.hasBody() || U.blocks().size() != 2)
      return false;
    Init = U.blocks()[0];
    Check = U.blocks()[1];

    // Shape: init --wait--> check --br--> init.
    Instruction *WaitT = Init->terminator();
    Instruction *BackT = Check->terminator();
    if (!WaitT || WaitT->opcode() != Opcode::Wait ||
        WaitT->waitDest() != Check)
      return false;
    if (!BackT || BackT->opcode() != Opcode::Br ||
        BackT->numOperands() != 1 || BackT->brDest(0) != Init)
      return false;
    for (unsigned J = 1, E = WaitT->numOperands(); J != E; ++J)
      if (WaitT->operand(J)->type()->isTime())
        return false;

    // Instruction legality: only prb + pure data flow besides the drives.
    for (BasicBlock *BB : {Init, Check})
      for (Instruction *I : BB->insts()) {
        if (I->isTerminator() || I->opcode() == Opcode::Prb ||
            I->isPureDataFlow())
          continue;
        if (I->opcode() == Opcode::Drv && BB == Check)
          continue;
        return false;
      }

    // Collect conditional drives; every drive must convert to a reg.
    std::vector<Instruction *> Drives;
    for (Instruction *I : Check->insts())
      if (I->opcode() == Opcode::Drv)
        Drives.push_back(I);
    if (Drives.empty())
      return false;
    for (Instruction *Drv : Drives)
      if (Drv->numOperands() != 4)
        return false; // Unconditional drive: combinational, not a reg.

    // Build the replacement entity lazily; bail out leaves it unused.
    E = M.createEntity(U.name() + ".deseq");
    for (Argument *A : U.inputs())
      ArgMap[A] = E->addInput(A->type(), A->name());
    for (Argument *A : U.outputs())
      ArgMap[A] = E->addOutput(A->type(), A->name());
    Body = E->entityBlock();
    Builder.setInsertPoint(Body);

    for (Instruction *Drv : Drives) {
      if (!convertDrive(Drv)) {
        M.eraseUnit(E);
        return false;
      }
    }

    Notes.push_back("@" + U.name() + ": inferred " +
                    std::to_string(Drives.size()) +
                    " register(s) during desequentialisation");
    replaceUnit(M, &U, E);
    return true;
  }

private:
  /// The signal probed by \p V if it is a prb instruction, else null.
  Value *probedSignal(Value *V) const {
    auto *I = dyn_cast<Instruction>(V);
    if (!I || I->opcode() != Opcode::Prb)
      return nullptr;
    return I->operand(0);
  }

  /// TR of the block defining \p V: 0 for Init, 1 for Check, -1 else.
  int regionOf(Value *V) const {
    auto *I = dyn_cast<Instruction>(V);
    if (!I || !I->parent())
      return -1;
    if (I->parent() == Init)
      return 0;
    if (I->parent() == Check)
      return 1;
    return -1;
  }

  /// Clones the pure/prb data-flow DAG of \p V into the entity. Only
  /// "present" (TR1) samples are legal; past samples must have been
  /// consumed by edge detection — except where the per-trigger
  /// substitution map pins them to their value at trigger time.
  Value *cloneIntoEntity(Value *V) {
    auto SIt = Subst.find(V);
    if (SIt != Subst.end())
      return SIt->second;
    auto It = CloneMap.find(V);
    if (It != CloneMap.end())
      return It->second;
    if (auto *A = dyn_cast<Argument>(V)) {
      auto AIt = ArgMap.find(A);
      return AIt == ArgMap.end() ? nullptr : AIt->second;
    }
    auto *I = dyn_cast<Instruction>(V);
    if (!I)
      return nullptr;
    if (I->opcode() == Opcode::Prb) {
      if (regionOf(I) != 1)
        return nullptr; // Past sample outside an edge pattern.
      Value *Sig = cloneIntoEntity(I->operand(0));
      if (!Sig)
        return nullptr;
      Value *C = Builder.prb(Sig, I->name());
      CloneMap[V] = C;
      return C;
    }
    if (!I->isPureDataFlow())
      return nullptr;
    Instruction *NI = cloneInst(I, {});
    for (unsigned J = 0, EOp = NI->numOperands(); J != EOp; ++J) {
      Value *Op = cloneIntoEntity(NI->operand(J));
      if (!Op) {
        NI->dropAllOperands();
        delete NI;
        return nullptr;
      }
      NI->setOperand(J, Op);
    }
    Body->append(NI);
    CloneMap[V] = NI;
    return NI;
  }

  /// Materialises a literal (possibly negated) in the entity.
  Value *cloneLiteral(const DnfLiteral &L) {
    Value *V = cloneIntoEntity(L.Val);
    if (!V)
      return nullptr;
    return L.Negated ? Builder.bitNot(V) : V;
  }

  /// Converts one conditional drive into reg triggers; false on failure.
  bool convertDrive(Instruction *Drv) {
    Value *Signal = Drv->operand(0);
    Dnf D = Dnf::of(Drv->operand(3));
    if (D.isFalse() || D.isTrue())
      return false;

    std::vector<IRBuilder::RegEntry> Entries;
    for (const DnfTerm &Term : D.terms()) {
      // Find past/present pairs over the same signal.
      struct EdgeInfo {
        Value *Signal;
        RegMode Mode;
        Value *PastProbe;
        Value *PresentProbe;
      };
      std::vector<EdgeInfo> Edges;
      std::vector<DnfLiteral> Rest;
      std::set<unsigned> Consumed;
      for (unsigned A = 0; A != Term.size(); ++A) {
        if (Consumed.count(A))
          continue;
        Value *SigA = probedSignal(Term[A].Val);
        int RegA = regionOf(Term[A].Val);
        bool Paired = false;
        if (SigA && (RegA == 0 || RegA == 1)) {
          for (unsigned Bi = A + 1; Bi != Term.size(); ++Bi) {
            if (Consumed.count(Bi))
              continue;
            Value *SigB = probedSignal(Term[Bi].Val);
            int RegB = regionOf(Term[Bi].Val);
            if (SigB != SigA || SigB == nullptr || RegA == RegB)
              continue;
            // Identify (past, present) polarity.
            const DnfLiteral &Past = RegA == 0 ? Term[A] : Term[Bi];
            const DnfLiteral &Present = RegA == 0 ? Term[Bi] : Term[A];
            RegMode Mode;
            if (Past.Negated && !Present.Negated)
              Mode = RegMode::Rise;
            else if (!Past.Negated && Present.Negated)
              Mode = RegMode::Fall;
            else
              continue; // T0∧T1 or ¬T0∧¬T1: no event, skip pairing.
            Edges.push_back({SigA, Mode, Past.Val, Present.Val});
            Consumed.insert(A);
            Consumed.insert(Bi);
            Paired = true;
            break;
          }
        }
        if (!Paired && !Consumed.count(A))
          Rest.push_back(Term[A]);
      }

      // The stored value's DAG may itself reference the edge samples
      // (TCM's drive coalescing folds path conditions into the value
      // mux). At the instant the trigger fires those samples have known
      // values: pin them per trigger before cloning.
      Subst.clear();
      CloneMap.clear();
      for (const EdgeInfo &E2 : Edges) {
        bool Rise = E2.Mode == RegMode::Rise;
        Subst[E2.PastProbe] =
            Builder.constInt(IntValue(1, Rise ? 0 : 1));
        Subst[E2.PresentProbe] =
            Builder.constInt(IntValue(1, Rise ? 1 : 0));
      }

      IRBuilder::RegEntry Entry;
      Entry.StoredValue = cloneIntoEntity(Drv->operand(1));
      Entry.Delay = cloneIntoEntity(Drv->operand(2));
      if (!Entry.StoredValue || !Entry.Delay)
        return false;

      if (Edges.size() == 1) {
        Entry.Mode = Edges[0].Mode;
        Value *TrigSig = cloneIntoEntity(Edges[0].Signal);
        if (!TrigSig)
          return false;
        Entry.Trigger = Builder.prb(TrigSig);
      } else if (Edges.empty() && !Rest.empty()) {
        // Level trigger (latch): first literal gates, by level.
        DnfLiteral Gate = Rest.front();
        Rest.erase(Rest.begin());
        if (regionOf(Gate.Val) != 1)
          return false;
        Value *T = cloneIntoEntity(Gate.Val);
        if (!T)
          return false;
        Entry.Trigger = T;
        Entry.Mode = Gate.Negated ? RegMode::Low : RegMode::High;
      } else {
        return false; // Multiple edges in one term: not a register.
      }

      // The rest forms the gating condition.
      Value *Cond = nullptr;
      for (const DnfLiteral &L : Rest) {
        if (regionOf(L.Val) == 0)
          return false; // Unconsumed past sample.
        Value *LV = cloneLiteral(L);
        if (!LV)
          return false;
        Cond = Cond ? Builder.bitAnd(Cond, LV) : LV;
      }
      Entry.Cond = Cond;
      Entries.push_back(Entry);
    }

    Value *TargetSig = cloneIntoEntity(Signal);
    if (!TargetSig)
      return false;
    Builder.reg(TargetSig, Entries);
    return true;
  }

  Module &M;
  Unit &U;
  std::vector<std::string> &Notes;
  BasicBlock *Init = nullptr;
  BasicBlock *Check = nullptr;
  Unit *E = nullptr;
  BasicBlock *Body = nullptr;
  IRBuilder Builder{U.context()};
  ValueMap ArgMap;
  ValueMap CloneMap;
  std::map<Value *, Value *> Subst;
};

} // namespace

bool llhd::desequentialize(Module &M, Unit &U,
                           std::vector<std::string> &Notes) {
  return Desequentializer(M, U, Notes).run();
}
