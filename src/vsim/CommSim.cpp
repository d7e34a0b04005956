//===- vsim/CommSim.cpp - Commercial-simulator stand-in ------------------------===//
//
// The closure-compiled comparison engine, rebuilt on the shared lowered
// runtime IR (sim/Lir.h): each LirOp is compiled once per unit into a
// closure over a register file, and execution threads a pc through the
// closure vector. CommSim performs no opcode walk over ir::Instruction —
// the one lowering in sim/Lir.cpp feeds all three engines, so value and
// scheduling semantics are shared by construction while the execution
// style (std::function dispatch, the ethos of classic compiled-code
// simulators) stays independent.
//
//===----------------------------------------------------------------------===//

#include "vsim/CommSim.h"
#include "sim/Checkpoint.h"
#include "sim/EventLoop.h"
#include "sim/Lir.h"
#include "sim/Program.h"
#include "sim/RtOps.h"
#include "support/DepthPool.h"

#include <functional>
#include <map>
#include <memory>

using namespace llhd;

/// Engine services visible to closures.
struct CommSimImplRef;

namespace {

struct CsExec; // Per-activation execution context.

/// One compiled op: mutates the register file / schedules events and
/// returns the next pc, or a sentinel: CsHalt, CsRet, or a wait encoded
/// as -(resume pc) + CsWaitBase.
constexpr int CsHalt = -1;
constexpr int CsRet = -2;
constexpr int CsWaitBase = -3; ///< Wait: returns CsWaitBase - resume pc.
using CsOp = std::function<int(CsExec &)>;

/// A unit compiled to closures, shared across instances.
struct CsUnit {
  const LirUnit *L = nullptr;
  std::vector<CsOp> Ops;
};

/// Per-activation state the closures operate on.
struct CsExec {
  std::vector<RtValue> R;      ///< Register file.
  std::vector<RtValue> Memory; ///< var/alloc cells.
  RtValue RetVal;
  // Engine services (filled by the engine before running closures):
  CommSimImplRef *Eng = nullptr;
  const void *InstanceTag = nullptr; ///< Driver identity.
  std::vector<RtValue> *RegPrev = nullptr;
  std::vector<uint8_t> *RegPrevValid = nullptr;
  std::vector<RtValue> *DelPrev = nullptr;
  bool Initial = false;
  // Wait results.
  std::vector<SignalId> *Sensitivity = nullptr;
  bool SkipSense = false; ///< Stable sensitivity already registered.
  bool TimeoutSet = false;
  Time Timeout;
};

} // namespace

struct CommSimImplRef {
  SignalTable *Signals = nullptr;
  Scheduler *Sched = nullptr;
  Time *Now = nullptr;
  std::function<RtValue(Unit *, std::vector<RtValue>)> CallFn;
};

namespace {

/// Compiles one lowered unit to closures: a per-LirOpc dispatch, not a
/// per-ir::Opcode one.
CsUnit compileUnit(const LirUnit &L) {
  CsUnit CU;
  CU.L = &L;
  CU.Ops.reserve(L.Ops.size());
  for (size_t PcIdx = 0; PcIdx != L.Ops.size(); ++PcIdx) {
    const LirOp &Op = L.Ops[PcIdx];
    const int Next = static_cast<int>(PcIdx) + 1;
    switch (Op.C) {
    case LirOpc::Pure: {
      const int32_t *Pool = L.OperandPool.data();
      CU.Ops.push_back([Op, Pool, Next](CsExec &X) {
        execPure(Op, Pool, X.R.data());
        return Next;
      });
      break;
    }
    case LirOpc::Prb:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.R[Op.Dst] = X.Eng->Signals->read(X.R[Op.A].sigRef());
        return Next;
      });
      break;
    case LirOpc::Drv:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        if (Op.Dd >= 0 && !X.R[Op.Dd].isTruthy())
          return Next;
        X.Eng->Sched->scheduleUpdate(
            driveTarget(*X.Eng->Now, X.R[Op.Cc].timeValue()),
            {X.R[Op.A].sigRef(), X.R[Op.B],
             driverId(X.InstanceTag, Op.Origin)});
        X.Eng->Sched->countScheduled(1);
        return Next;
      });
      break;
    case LirOpc::Jmp: {
      const int T = Op.Jmp0;
      CU.Ops.push_back([T](CsExec &) { return T; });
      break;
    }
    case LirOpc::CondJmp: {
      const int TF = Op.Jmp0, TT = Op.Jmp1;
      const int32_t A = Op.A;
      CU.Ops.push_back(
          [A, TF, TT](CsExec &X) { return X.R[A].isTruthy() ? TT : TF; });
      break;
    }
    case LirOpc::Copy:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.R[Op.Dst] = X.R[Op.A];
        return Next;
      });
      break;
    case LirOpc::Wait: {
      const int32_t *Obs = L.OperandPool.data() + Op.OpsBase;
      CU.Ops.push_back([Op, Obs](CsExec &X) {
        if (!X.SkipSense) {
          X.Sensitivity->clear();
          for (uint32_t J = 0; J != Op.OpsCount; ++J)
            X.Sensitivity->push_back(
                X.Eng->Signals->canonical(X.R[Obs[J]].sigId()));
        }
        X.TimeoutSet = Op.A >= 0;
        if (X.TimeoutSet)
          X.Timeout = X.R[Op.A].timeValue();
        return CsWaitBase - Op.Jmp0;
      });
      break;
    }
    case LirOpc::Halt:
      CU.Ops.push_back([](CsExec &) { return CsHalt; });
      break;
    case LirOpc::Ret: {
      const int32_t A = Op.A;
      CU.Ops.push_back([A](CsExec &X) {
        X.RetVal = A >= 0 ? X.R[A] : RtValue();
        return CsRet;
      });
      break;
    }
    case LirOpc::Call: {
      const int32_t *ArgIdx = L.OperandPool.data() + Op.OpsBase;
      CU.Ops.push_back([Op, ArgIdx, Next](CsExec &X) {
        std::vector<RtValue> Vals;
        Vals.reserve(Op.OpsCount);
        for (uint32_t J = 0; J != Op.OpsCount; ++J)
          Vals.push_back(X.R[ArgIdx[J]]);
        RtValue Ret = X.Eng->CallFn(Op.Callee, std::move(Vals));
        if (Op.Dst >= 0)
          X.R[Op.Dst] = std::move(Ret);
        return Next;
      });
      break;
    }
    case LirOpc::Var:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.Memory.push_back(X.R[Op.A]);
        X.R[Op.Dst] = RtValue::makePointer(X.Memory.size() - 1);
        return Next;
      });
      break;
    case LirOpc::Ld:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.R[Op.Dst] = X.Memory[X.R[Op.A].pointer()];
        return Next;
      });
      break;
    case LirOpc::St:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.Memory[X.R[Op.A].pointer()] = X.R[Op.B];
        return Next;
      });
      break;
    case LirOpc::Reg: {
      const LirUnit *LP = &L;
      CU.Ops.push_back([Op, LP, Next](CsExec &X) {
        SigRef Target = X.R[Op.A].sigRef();
        // The fire/previous-sample semantics are the shared
        // execRegTriggers; only the scheduling hookup is CommSim's.
        execRegTriggers(
            *LP, Op, X.R, *X.RegPrev, *X.RegPrevValid, X.Initial,
            [&](Time Delay, const RtValue &Val, uint32_t TI) {
              X.Eng->Sched->scheduleUpdate(
                  driveTarget(*X.Eng->Now, Delay),
                  {Target, Val, driverId(X.InstanceTag, Op.Origin) + TI});
              X.Eng->Sched->countScheduled(1);
            });
        return Next;
      });
      break;
    }
    case LirOpc::Del:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        RtValue Cur = X.Eng->Signals->read(X.R[Op.B].sigRef());
        RtValue &Prev = (*X.DelPrev)[Op.Imm];
        if (X.Initial || Prev != Cur) {
          Prev = Cur;
          X.Eng->Sched->scheduleUpdate(
              X.Eng->Now->advance(X.R[Op.Cc].timeValue()),
              {X.R[Op.A].sigRef(), Cur,
               driverId(X.InstanceTag, Op.Origin)});
          X.Eng->Sched->countScheduled(1);
        }
        return Next;
      });
      break;
    }
  }
  return CU;
}

//===----------------------------------------------------------------------===//
// Runtime state
//===----------------------------------------------------------------------===//

struct CsProcState {
  const CsUnit *CU = nullptr;
  const UnitInstance *Inst = nullptr;
  CsExec X;
  int Pc = 0;
  bool Started = false;
  enum class St { Ready, Waiting, Halted } State = St::Ready;
  std::vector<SignalId> Sensitivity;
  std::vector<RtValue> RegPrev, DelPrev;
  std::vector<uint8_t> RegPrevValid;
  uint64_t WakeGen = 0;
};

struct CsEntState {
  const CsUnit *CU = nullptr;
  const UnitInstance *Inst = nullptr;
  CsExec X;
  std::vector<RtValue> RegPrev, DelPrev;
  std::vector<uint8_t> RegPrevValid;
};

} // namespace

/// The compile-once artifact (opaque in the header): the jit-less base
/// program (design + lowering cache) plus every reachable unit compiled
/// to closures. The closures capture pointers into the base cache's
/// LirUnits, so Base must outlive Units — member order guarantees it.
struct llhd::CommProgram {
  std::shared_ptr<const LirProgram> Base;
  std::map<const Unit *, CsUnit> Units;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

struct CommSim::Impl {
  /// The shared, immutable program; possibly concurrently executed by
  /// sibling batch instances — never written.
  std::shared_ptr<const CommProgram> Prog;
  SimOptions Opts;
  /// Everything this run mutates.
  SimState St;
  CommSimImplRef Services;

  std::vector<CsProcState> Procs;
  std::vector<CsEntState> Ents;

  /// Depth-indexed pool of function execution contexts, reused across
  /// calls.
  DepthPool<CsExec> FnPool;

  const Design &design() const { return Prog->Base->D; }

  Impl(std::shared_ptr<const CommProgram> P, SimOptions O)
      : Prog(std::move(P)), Opts(std::move(O)),
        St(design().ok() ? SimState(design(), Opts.TraceMode, Opts.Seed)
                         : SimState()) {
    if (!design().ok())
      return;
    Services.Signals = &St.Signals;
    Services.Sched = &St.Sched;
    Services.Now = &St.Now;
    Services.CallFn = [this](Unit *F, std::vector<RtValue> Args) {
      return callFunction(F, std::move(Args));
    };
    build();
  }

  /// Pure lookup into the program: every reachable unit was compiled at
  /// buildProgram() time.
  const CsUnit &unitFor(const Unit *U) const {
    return Prog->Units.at(U);
  }

  void preload(const CsUnit &CU, const UnitInstance &UI, CsExec &X) {
    CU.L->preload(UI, X.R);
    X.Eng = &Services;
  }

  void build() {
    for (const UnitInstance &UI : design().Instances) {
      const CsUnit &CU = unitFor(UI.U);
      if (UI.U->isProcess()) {
        CsProcState PS;
        PS.CU = &CU;
        PS.Inst = &UI;
        preload(CU, UI, PS.X);
        PS.X.InstanceTag = &UI;
        PS.RegPrev.assign(CU.L->NumRegPrev, RtValue());
        PS.RegPrevValid.assign(CU.L->NumRegPrev, 0);
        PS.DelPrev.assign(CU.L->NumDelPrev, RtValue());
        Procs.push_back(std::move(PS));
      } else {
        CsEntState ES;
        ES.CU = &CU;
        ES.Inst = &UI;
        preload(CU, UI, ES.X);
        ES.X.InstanceTag = &UI;
        ES.RegPrev.assign(CU.L->NumRegPrev, RtValue());
        ES.RegPrevValid.assign(CU.L->NumRegPrev, 0);
        ES.DelPrev.assign(CU.L->NumDelPrev, RtValue());
        Ents.push_back(std::move(ES));
      }
    }
    // Re-point the aux vectors at their final locations (the vectors
    // above were moved into place).
    for (CsProcState &PS : Procs) {
      PS.X.Sensitivity = &PS.Sensitivity;
      PS.X.RegPrev = &PS.RegPrev;
      PS.X.RegPrevValid = &PS.RegPrevValid;
      PS.X.DelPrev = &PS.DelPrev;
    }
    for (CsEntState &ES : Ents) {
      ES.X.RegPrev = &ES.RegPrev;
      ES.X.RegPrevValid = &ES.RegPrevValid;
      ES.X.DelPrev = &ES.DelPrev;
    }
    // Entity static sensitivity comes from D.EntityWatchers, built at
    // elaboration and shared with the other engines.
  }

  RtValue callFunction(Unit *F, std::vector<RtValue> Args) {
    if (F->isIntrinsic() || F->isDeclaration())
      return callIntrinsic(*F, Args, Opts, St);
    const CsUnit &CU = unitFor(F);
    auto Lease = FnPool.lease();
    CsExec &X = *Lease;
    X.Eng = &Services;
    X.R.assign(CU.L->NumSlots, RtValue());
    X.Memory.clear();
    for (const auto &[Slot, V] : CU.L->ConstSlots)
      X.R[Slot] = V;
    for (unsigned I = 0; I != F->inputs().size(); ++I)
      X.R[F->input(I)->valueNumber()] = std::move(Args[I]);
    int Pc = 0;
    uint64_t Fuel = MaxBackwardJumps;
    for (;;) {
      int Next = CU.Ops[Pc](X);
      if (Next < 0)
        return std::move(X.RetVal);
      if (Next <= Pc && !--Fuel)
        return defaultValue(F->returnType()); // Runaway guard.
      Pc = Next;
    }
  }

  void runProcess(uint32_t PI) {
    CsProcState &PS = Procs[PI];
    if (PS.State == CsProcState::St::Halted)
      return;
    PS.State = CsProcState::St::Ready;
    ++St.Stats.ProcessRuns;
    const CsUnit &CU = *PS.CU;
    // Classified processes resume from the compile-time-constant pc and
    // keep their one-time sensitivity registration.
    int Pc = CU.L->StableWait && PS.Started ? CU.L->ResumePc : PS.Pc;
    PS.X.SkipSense = CU.L->StableWait && PS.Started;
    uint64_t Fuel = MaxBackwardJumps;
    for (;;) {
      int Next = CU.Ops[Pc](PS.X);
      if (Next >= 0) {
        if (Next <= Pc && !--Fuel)
          break; // Runaway guard: treat as hung.
        Pc = Next;
        continue;
      }
      if (Next == CsHalt || Next == CsRet) {
        PS.State = CsProcState::St::Halted;
        return;
      }
      // Wait: resume pc is encoded as CsWaitBase - pc.
      int Dest = CsWaitBase - Next;
      if (!PS.X.SkipSense)
        ++PS.WakeGen;
      if (PS.X.TimeoutSet)
        St.Sched.scheduleWake(St.Now.advance(PS.X.Timeout),
                              {PI, PS.WakeGen});
      PS.Started = true;
      PS.State = CsProcState::St::Waiting;
      PS.Pc = Dest;
      return;
    }
    PS.State = CsProcState::St::Halted;
  }

  void evalEntity(uint32_t EI, bool Initial) {
    CsEntState &ES = Ents[EI];
    ++St.Stats.EntityEvals;
    ES.X.Initial = Initial;
    for (const CsOp &Op : ES.CU->Ops)
      Op(ES.X);
  }

  //===------------------------------------------------------------------===//
  // EventLoop hooks
  //===------------------------------------------------------------------===//

  uint32_t numProcs() const { return Procs.size(); }
  uint32_t numEnts() const { return Ents.size(); }
  bool procWaiting(uint32_t PI) const {
    return Procs[PI].State == CsProcState::St::Waiting;
  }
  bool procHalted(uint32_t PI) const {
    return Procs[PI].State == CsProcState::St::Halted;
  }
  const std::vector<SignalId> &procSensitivity(uint32_t PI) const {
    return Procs[PI].Sensitivity;
  }
  uint64_t procWakeGen(uint32_t PI) const { return Procs[PI].WakeGen; }
  void procBumpWakeGen(uint32_t PI) { ++Procs[PI].WakeGen; }
  bool procSenseStable(uint32_t PI) const {
    return Procs[PI].CU->L->StableWait;
  }
  bool finishRequested() const { return St.FinishRequested; }
  std::string procName(uint32_t PI) const {
    return Procs[PI].Inst->HierName;
  }

  SimStats run() {
    if (!design().ok())
      return SimStats();
    return runEventLoop(*this, design(), Opts, St, Resumed);
  }

  //===------------------------------------------------------------------===//
  // Checkpoint / restore
  //===------------------------------------------------------------------===//

  bool Resumed = false;

  void checkpoint(std::vector<uint8_t> &Out) {
    std::vector<ckpt::ProcRecord> PRecs(Procs.size());
    for (size_t I = 0; I != Procs.size(); ++I) {
      const CsProcState &PS = Procs[I];
      ckpt::ProcRecord &Rec = PRecs[I];
      Rec.State = static_cast<uint8_t>(PS.State);
      Rec.Started = PS.Started;
      Rec.Pc = PS.Pc;
      Rec.WakeGen = PS.WakeGen;
      Rec.Sens = PS.Sensitivity;
      Rec.Frame = PS.X.R;
      Rec.Memory = PS.X.Memory;
      Rec.RegPrev = PS.RegPrev;
      Rec.RegPrevValid = PS.RegPrevValid;
      Rec.DelPrev = PS.DelPrev;
    }
    std::vector<ckpt::EntRecord> ERecs(Ents.size());
    for (size_t I = 0; I != Ents.size(); ++I) {
      const CsEntState &ES = Ents[I];
      ERecs[I] = {ES.X.R, ES.RegPrev, ES.RegPrevValid, ES.DelPrev};
    }
    // CommSim's driver ids use the same (instance-tag, instruction)
    // formula over the same &UI tags as the LIR engines, so the shared
    // codec's driver-id enumeration applies unchanged.
    ckpt::writeImage(Out, "comm", design(), Prog->Base->Cache, St, PRecs,
                     ERecs);
  }

  bool restore(const std::vector<uint8_t> &In, std::string &Err) {
    std::vector<ckpt::ProcRecord> PRecs;
    std::vector<ckpt::EntRecord> ERecs;
    if (!ckpt::readImage(In, design(), Prog->Base->Cache, St, PRecs, ERecs,
                         Err))
      return false;
    for (size_t I = 0; I != Procs.size(); ++I) {
      CsProcState &PS = Procs[I];
      ckpt::ProcRecord &Rec = PRecs[I];
      PS.State = static_cast<CsProcState::St>(Rec.State);
      PS.Started = Rec.Started != 0;
      PS.Pc = static_cast<int>(Rec.Pc);
      PS.WakeGen = Rec.WakeGen;
      PS.Sensitivity = std::move(Rec.Sens);
      PS.X.R = std::move(Rec.Frame);
      PS.X.Memory = std::move(Rec.Memory);
      PS.RegPrev = std::move(Rec.RegPrev);
      PS.RegPrevValid = std::move(Rec.RegPrevValid);
      PS.DelPrev = std::move(Rec.DelPrev);
    }
    for (size_t I = 0; I != Ents.size(); ++I) {
      CsEntState &ES = Ents[I];
      ckpt::EntRecord &Rec = ERecs[I];
      ES.X.R = std::move(Rec.Frame);
      ES.RegPrev = std::move(Rec.RegPrev);
      ES.RegPrevValid = std::move(Rec.RegPrevValid);
      ES.DelPrev = std::move(Rec.DelPrev);
    }
    Resumed = true;
    return true;
  }
};

std::shared_ptr<const CommProgram>
CommSim::buildProgram(Module &M, const std::string &Top, std::string &Err) {
  Design D = elaborate(M, Top);
  if (!D.ok()) {
    Err = D.Error;
    return nullptr;
  }
  auto P = std::make_shared<CommProgram>();
  P->Base = LirProgram::build(std::move(D), jit::JitOptions());
  P->Base->Cache.forEach([&](const Unit *U, const LirUnit &L) {
    P->Units.emplace(U, compileUnit(L));
  });
  return P;
}

namespace {
/// buildProgram()'s program, or one over an invalid design carrying the
/// build error.
std::shared_ptr<const CommProgram> buildOrInvalid(Module &M,
                                                  const std::string &Top) {
  Design Failed;
  if (auto P = CommSim::buildProgram(M, Top, Failed.Error))
    return P;
  auto P = std::make_shared<CommProgram>();
  P->Base = LirProgram::build(std::move(Failed));
  return P;
}
} // namespace

CommSim::CommSim(Module &M, const std::string &Top, SimOptions Opts)
    : CommSim(buildOrInvalid(M, Top), std::move(Opts)) {}

CommSim::CommSim(Module &M, const std::string &Top)
    : CommSim(M, Top, SimOptions()) {}

CommSim::CommSim(std::shared_ptr<const CommProgram> Prog, SimOptions Opts)
    : P(std::make_unique<Impl>(std::move(Prog), std::move(Opts))) {}

CommSim::~CommSim() = default;

bool CommSim::valid() const { return P->design().ok(); }
const std::string &CommSim::error() const { return P->design().Error; }
SimStats CommSim::run() { return P->run(); }
SimOptions &CommSim::options() { return P->Opts; }
void CommSim::checkpoint(std::vector<uint8_t> &Out) { P->checkpoint(Out); }
bool CommSim::restore(const std::vector<uint8_t> &In, std::string &Err) {
  return P->restore(In, Err);
}
const Trace &CommSim::trace() const { return P->St.Tr; }
const SignalTable &CommSim::signals() const { return P->St.Signals; }
const Design &CommSim::design() const { return P->design(); }
