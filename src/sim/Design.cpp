//===- sim/Design.cpp - Design elaboration -------------------------------------===//

#include "sim/Design.h"
#include "sim/RtOps.h"

#include <algorithm>
#include <set>

using namespace llhd;

namespace {

class Elaborator {
public:
  Elaborator(Module &M, Design &D) : M(M), D(D) {}

  void run(const std::string &Top) {
    Unit *U = M.unitByName(Top);
    if (!U) {
      D.Error = "top unit @" + Top + " not found";
      return;
    }
    if (U->isDeclaration()) {
      D.Error = "top unit @" + Top + " is only a declaration";
      return;
    }
    // Create signals for the top unit's own ports so it can be driven /
    // observed by harness code if needed.
    std::map<const Value *, SigRef> Bind;
    for (Argument *A : U->inputs())
      Bind[A] = portSignal(A, Top);
    for (Argument *A : U->outputs())
      Bind[A] = portSignal(A, Top);
    expand(U, Top, Bind);
  }

private:
  SigRef portSignal(Argument *A, const std::string &Hier) {
    auto *ST = dyn_cast<SignalType>(A->type());
    if (!ST) {
      D.Error = "port '" + A->name() + "' is not a signal";
      return SigRef();
    }
    SigRef R;
    R.Sig = D.Signals.create(ST->inner(), defaultValue(ST->inner()),
                             Hier + "/" + A->name());
    return R;
  }

  void expand(Unit *U, const std::string &Hier,
              std::map<const Value *, SigRef> Bind) {
    if (!D.Error.empty())
      return;
    if (Depth > 256) {
      D.Error = "instantiation depth exceeded (recursive hierarchy?)";
      return;
    }
    if (U->isFunction()) {
      D.Error = "@" + U->name() + ": functions cannot be instantiated";
      return;
    }
    if (U->isDeclaration()) {
      D.Error = "@" + U->name() + ": instantiating a declaration";
      return;
    }

    UnitInstance Inst;
    Inst.U = U;
    Inst.HierName = Hier;
    Inst.Bindings = std::move(Bind);

    if (U->isProcess()) {
      D.Instances.push_back(std::move(Inst));
      return;
    }

    // Entity: walk the body once, creating signals and recursing into
    // instantiations. Pure instructions over static operands are
    // evaluated so that sig inits and port references resolve.
    std::map<const Value *, RtValue> Env;
    auto staticVal = [&](Value *V) -> const RtValue * {
      auto It = Env.find(V);
      return It == Env.end() ? nullptr : &It->second;
    };

    for (Instruction *I : U->entityBlock()->insts()) {
      switch (I->opcode()) {
      case Opcode::Const:
        Env[I] = constValue(*I);
        break;
      case Opcode::Sig: {
        const RtValue *Init = staticVal(I->operand(0));
        RtValue InitV =
            Init ? *Init
                 : defaultValue(cast<SignalType>(I->type())->inner());
        SigRef R;
        R.Sig = D.Signals.create(cast<SignalType>(I->type())->inner(),
                                 InitV,
                                 Hier + "/" + (I->hasName()
                                                   ? I->name()
                                                   : "sig"));
        Inst.Bindings[I] = R;
        break;
      }
      case Opcode::Extf:
      case Opcode::Exts: {
        // Sub-signal references resolve at elaboration when the operand
        // is a bound signal; value-level extraction stays dynamic.
        auto BIt = Inst.Bindings.find(I->operand(0));
        if (BIt != Inst.Bindings.end() && I->type()->isSignal()) {
          if (I->opcode() == Opcode::Extf) {
            Inst.Bindings[I] = BIt->second.element(I->immediate());
          } else {
            Type *Inner = cast<SignalType>(I->type())->inner();
            // Array slices stay element-granular; int/logic slices are
            // bit ranges.
            if (Inner->isArray())
              Inst.Bindings[I] = BIt->second.elements(
                  I->immediate(), cast<ArrayType>(Inner)->length());
            else
              Inst.Bindings[I] =
                  BIt->second.bits(I->immediate(), Inner->bitWidth());
          }
        } else if (const RtValue *Op = staticVal(I->operand(0))) {
          Env[I] = evalPure(I->opcode(), {*Op}, I->immediate(), I);
        }
        break;
      }
      case Opcode::Con: {
        auto A = Inst.Bindings.find(I->operand(0));
        auto B = Inst.Bindings.find(I->operand(1));
        if (A == Inst.Bindings.end() || B == Inst.Bindings.end()) {
          D.Error = Hier + ": con of unbound signals";
          return;
        }
        if (!D.Signals.connectRefs(A->second, B->second)) {
          D.Error = Hier + ": con of bit-sliced or doubly nested "
                           "sub-signals is unsupported";
          return;
        }
        break;
      }
      case Opcode::InstOp: {
        Unit *Child = I->callee();
        if (!Child) {
          D.Error = Hier + ": inst without callee";
          return;
        }
        std::map<const Value *, SigRef> ChildBind;
        for (unsigned J = 0; J != I->numOperands(); ++J) {
          auto BIt = Inst.Bindings.find(I->operand(J));
          if (BIt == Inst.Bindings.end()) {
            D.Error = Hier + ": inst port not bound to a signal";
            return;
          }
          Argument *A = J < I->numInputs()
                            ? Child->input(J)
                            : Child->output(J - I->numInputs());
          ChildBind[A] = BIt->second;
        }
        ++Depth;
        expand(Child,
               Hier + "/" +
                   (I->hasName() ? I->name() : Child->name()),
               std::move(ChildBind));
        --Depth;
        if (!D.Error.empty())
          return;
        break;
      }
      case Opcode::Prb:
      case Opcode::Drv:
      case Opcode::Del:
      case Opcode::Reg:
        break; // Runtime rules; engines execute these.
      default: {
        if (!I->isPureDataFlow()) {
          D.Error = Hier + ": '" + opcodeName(I->opcode()) +
                    "' not allowed in an entity";
          return;
        }
        // Static evaluation when all operands are known.
        std::vector<RtValue> Ops;
        bool AllStatic = true;
        for (unsigned J = 0; J != I->numOperands(); ++J) {
          const RtValue *V = staticVal(I->operand(J));
          if (!V) {
            AllStatic = false;
            break;
          }
          Ops.push_back(*V);
        }
        if (AllStatic)
          Env[I] = evalPure(I->opcode(), Ops, I->immediate(), I);
        break;
      }
      }
    }
    D.Instances.push_back(std::move(Inst));
  }

  Module &M;
  Design &D;
  unsigned Depth = 0;
};

/// Builds the dense signal -> entity watcher index. Runs after the full
/// hierarchy is expanded so that `con` aliasing has settled and
/// canonical ids are final.
void buildSensitivityIndex(Design &D) {
  D.EntityWatchers.assign(D.Signals.size(), {});
  uint32_t EI = 0;
  for (const UnitInstance &UI : D.Instances) {
    if (UI.U->isProcess())
      continue;
    // An entity re-evaluates when a probed signal or a `del` source
    // changes.
    std::set<SignalId> Watched;
    for (Instruction *I : UI.U->entityBlock()->insts()) {
      if (I->opcode() == Opcode::Prb) {
        auto It = UI.Bindings.find(I->operand(0));
        if (It != UI.Bindings.end())
          Watched.insert(D.Signals.canonical(It->second.Sig));
      }
      if (I->opcode() == Opcode::Del) {
        auto It = UI.Bindings.find(I->operand(1));
        if (It != UI.Bindings.end())
          Watched.insert(D.Signals.canonical(It->second.Sig));
      }
    }
    for (SignalId S : Watched)
      D.EntityWatchers[S].push_back(EI);
    ++EI;
  }
}

} // namespace

Design llhd::elaborate(Module &M, const std::string &Top) {
  Design D;
  D.M = &M;
  Elaborator(M, D).run(Top);
  if (D.ok()) {
    buildSensitivityIndex(D);
    // Freeze the signal-table layout: canonical lookups become pure
    // reads and per-run tables (SignalTable::makeRun) share it safely
    // across batch worker threads.
    D.Signals.freeze();
  }
  return D;
}

std::string llhd::findTopUnit(const Module &M, std::string &Error) {
  std::vector<const Unit *> Candidates;
  for (const auto &U : M.units()) {
    if (U->isFunction() || U->isDeclaration())
      continue;
    Candidates.push_back(U.get());
  }
  for (const auto &U : M.units())
    for (const BasicBlock *B : U->blocks())
      for (const Instruction *I : B->insts())
        if (I->opcode() == Opcode::InstOp && I->callee())
          Candidates.erase(std::remove(Candidates.begin(), Candidates.end(),
                                       I->callee()),
                           Candidates.end());
  if (Candidates.size() == 1)
    return Candidates.front()->name();
  if (Candidates.empty()) {
    Error = "no top unit found (every process/entity is instantiated); "
            "use --top=<name>";
  } else {
    Error = "multiple top candidates (use --top=<name>):";
    for (const Unit *U : Candidates)
      Error += " @" + U->name();
  }
  return "";
}
