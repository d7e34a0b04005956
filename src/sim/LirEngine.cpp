//===- sim/LirEngine.cpp - Direct LIR execution core ---------------------------===//

#include "sim/LirEngine.h"
#include "ir/Type.h"
#include "jit/Runtime.h"
#include "sim/Checkpoint.h"
#include "sim/EventLoop.h"
#include "sim/RtOps.h"

using namespace llhd;

namespace {
/// Run state for a program; invalid designs get an inert default (they
/// are never run, only queried for the error).
SimState makeState(const Design &D, const SimOptions &O) {
  return D.ok() ? SimState(D, O.TraceMode, O.Seed) : SimState();
}

/// Where a Jmp or CondJmp op goes in frame \p F.
int32_t jumpTarget(const LirOp &Op, const RtValue *F) {
  return Op.C == LirOpc::CondJmp && F[Op.A].isTruthy() ? Op.Jmp1 : Op.Jmp0;
}
} // namespace

LirEngine::LirEngine(std::shared_ptr<const LirProgram> P, SimOptions O)
    : Prog(std::move(P)), Opts(std::move(O)), St(makeState(Prog->D, Opts)),
      D(Prog->D), Cache(Prog->Cache), Signals(St.Signals), Sched(St.Sched),
      Tr(St.Tr), Stats(St.Stats), Now(St.Now) {}

LirEngine::~LirEngine() = default;

void LirEngine::build() {
  for (const UnitInstance &UI : D.Instances) {
    // The program lowered every instantiated unit eagerly; lookups are
    // pure reads on the shared cache.
    const LirUnit &L = *Cache.lookup(UI.U);
    if (UI.U->isProcess()) {
      ProcState PS;
      PS.L = &L;
      PS.Inst = &UI;
      L.preload(UI, PS.Frame);
      Procs.push_back(std::move(PS));
    } else {
      EntState ES;
      ES.L = &L;
      ES.Inst = &UI;
      L.preload(UI, ES.Frame);
      ES.RegPrev.assign(L.NumRegPrev, RtValue());
      ES.RegPrevValid.assign(L.NumRegPrev, 0);
      ES.DelPrev.assign(L.NumDelPrev, RtValue());
      Ents.push_back(std::move(ES));
    }
  }
  // Entity static sensitivity comes from Design::EntityWatchers, built
  // at elaboration and shared by every engine.
  buildJit();
}

//===----------------------------------------------------------------------===//
// Native code (src/jit/)
//===----------------------------------------------------------------------===//

void LirEngine::buildJit() {
  const jit::JitModule *JM = Prog->JitMod.get();
  if (!JM)
    return;
  // Compile-time statistics come from the shared program; the per-run
  // bind counts below land in this engine's private copy (the program
  // stays immutable under concurrent batch builds).
  JitSt = JM->St;
  for (uint32_t PI = 0; PI != Procs.size(); ++PI) {
    ProcState &PS = Procs[PI];
    const jit::JitModule::NativeUnit *NU = JM->nativeFor(PS.L);
    if (!NU) {
      ++JitSt.InterpProcs;
      continue;
    }
    auto Ctx = std::make_unique<jit::ProcContext>();
    if (!JM->bindProcess(*this, PI, *NU, *PS.Inst, PS.Frame, *Ctx)) {
      ++JitSt.InterpProcs;
      continue;
    }
    for (const jit::PrbSite &Site : Ctx->Prbs)
      ++(Site.Direct ? JitSt.DirectPrbs : JitSt.ResolvedPrbs);
    PS.Jit = Ctx.get();
    JitCtxs.push_back(std::move(Ctx));
    ++JitSt.NativeProcs;
  }
}

const std::string &LirEngine::jitSource() const {
  static const std::string Empty;
  return Prog->JitMod ? Prog->JitMod->Source : Empty;
}

void LirEngine::runProcessNative(uint32_t PI) {
  ProcState &PS = Procs[PI];
  PS.State = ProcState::St::Ready;
  ++Stats.ProcessRuns;
  jit::ProcContext &C = *PS.Jit;
  long long R = C.Fn(jit::apiTable(), &C, C.Lanes.data(), PS.Entry);
  if (R < 0) {
    // -1: halt; -2: fuel exhausted — same treatment as the
    // interpreter's runaway guard.
    PS.State = ProcState::St::Halted;
    return;
  }
  const jit::WaitSite &W = C.Waits[R];
  const LirUnit &L = *PS.L;
  if (!L.StableWait || !PS.Started) {
    PS.Sensitivity.assign(W.Sens.begin(), W.Sens.end());
    ++PS.WakeGen;
  }
  if (W.HasTimeout)
    Sched.scheduleWake(Now.advance(W.Timeout), {PI, PS.WakeGen});
  PS.Started = true;
  PS.State = ProcState::St::Waiting;
  PS.Entry = W.ResumeEntry;
}

//===----------------------------------------------------------------------===//
// Function execution (immediate, §2.4.1)
//===----------------------------------------------------------------------===//

RtValue LirEngine::callFunction(Unit *Fn, std::vector<RtValue> &Args) {
  if (Fn->isIntrinsic() || Fn->isDeclaration())
    return callIntrinsic(*Fn, Args, Opts, St);
  // Eagerly lowered by the program (call-graph fixpoint); pure lookup.
  const LirUnit &L = *Cache.lookup(Fn);
  auto FR = FnPool.lease();
  std::vector<RtValue> &Frame = FR->Frame;
  std::vector<RtValue> &Memory = FR->Memory;
  Frame.assign(L.NumSlots, RtValue());
  Memory.clear();
  for (const auto &[Slot, V] : L.ConstSlots)
    Frame[Slot] = V;
  for (unsigned I = 0; I != Fn->inputs().size(); ++I)
    Frame[Fn->input(I)->valueNumber()] = std::move(Args[I]);

  const LirOp *Ops = L.Ops.data();
  const int32_t *Pool = L.OperandPool.data();
  RtValue *F = Frame.data();
  int32_t Pc = 0;
  uint64_t Fuel = MaxBackwardJumps;
  for (;;) {
    const LirOp &Op = Ops[Pc];
    switch (Op.C) {
    case LirOpc::Ret:
      return Op.A >= 0 ? std::move(F[Op.A]) : RtValue();
    case LirOpc::Jmp:
    case LirOpc::CondJmp: {
      int32_t To = jumpTarget(Op, F);
      if (To <= Pc && !--Fuel)
        return defaultValue(Fn->returnType()); // Runaway guard.
      Pc = To;
      continue;
    }
    case LirOpc::Copy:
      F[Op.Dst] = F[Op.A];
      break;
    case LirOpc::Pure:
      execPure(Op, Pool, F);
      break;
    case LirOpc::Var:
      Memory.push_back(F[Op.A]);
      F[Op.Dst] = RtValue::makePointer(Memory.size() - 1);
      break;
    case LirOpc::Ld:
      F[Op.Dst] = Memory[F[Op.A].pointer()];
      break;
    case LirOpc::St:
      Memory[F[Op.A].pointer()] = F[Op.B];
      break;
    case LirOpc::Call: {
      RtValue R = callOp(Op, F, Pool);
      if (Op.Dst >= 0)
        F[Op.Dst] = std::move(R);
      break;
    }
    default:
      assert(false && "illegal op in function");
      return RtValue();
    }
    ++Pc;
  }
}

/// Gathers a Call op's arguments (slots in the caller's operand pool)
/// from the caller's frame into a pooled buffer and invokes the callee.
RtValue LirEngine::callOp(const LirOp &Op, const RtValue *F,
                          const int32_t *Pool) {
  auto Lease = ArgPool.lease();
  std::vector<RtValue> &Args = *Lease;
  Args.clear();
  for (uint32_t J = 0; J != Op.OpsCount; ++J)
    Args.push_back(F[Pool[Op.OpsBase + J]]);
  return callFunction(Op.Callee, Args);
}

//===----------------------------------------------------------------------===//
// Process execution
//===----------------------------------------------------------------------===//

void LirEngine::runProcess(uint32_t PI) {
  ProcState &PS = Procs[PI];
  if (PS.State == ProcState::St::Halted)
    return;
  if (PS.Jit) {
    runProcessNative(PI);
    return;
  }
  PS.State = ProcState::St::Ready;
  ++Stats.ProcessRuns;
  const LirUnit &L = *PS.L;
  const LirOp *Ops = L.Ops.data();
  const int32_t *Pool = L.OperandPool.data();
  RtValue *F = PS.Frame.data();

  // PureComb fast path: a straight probe/compute/drive sweep with no
  // control-flow dispatch, ending in the (implicit) static wait. The
  // sensitivity set was registered at the first suspension and never
  // changes; no pc, wake-generation or registration bookkeeping runs.
  if (L.Class == ProcClass::PureComb && PS.Started) {
    const int32_t End = L.WaitPc;
    for (int32_t Pc = L.ResumePc; Pc != End; ++Pc) {
      const LirOp &Op = Ops[Pc];
      switch (Op.C) {
      case LirOpc::Pure:
        execPure(Op, Pool, F);
        break;
      case LirOpc::Prb:
        execPrb(Op, F);
        break;
      case LirOpc::Drv:
        execDrv(Op, F, PS.Inst);
        break;
      case LirOpc::Copy:
        F[Op.Dst] = F[Op.A];
        break;
      case LirOpc::Var:
        PS.Memory.push_back(F[Op.A]);
        F[Op.Dst] = RtValue::makePointer(PS.Memory.size() - 1);
        break;
      case LirOpc::Ld:
        F[Op.Dst] = PS.Memory[F[Op.A].pointer()];
        break;
      case LirOpc::St:
        PS.Memory[F[Op.A].pointer()] = F[Op.B];
        break;
      default:
        break; // Unreachable by classification.
      }
    }
    PS.State = ProcState::St::Waiting;
    return;
  }

  // ClockedReg processes resume from the classifier's constant pc; the
  // stored pc is only needed for the unclassified general shape.
  int32_t Pc = L.StableWait && PS.Started ? L.ResumePc : PS.Pc;
  uint64_t Fuel = MaxBackwardJumps;
  for (;;) {
    const LirOp &Op = Ops[Pc];
    switch (Op.C) {
    case LirOpc::Halt:
      PS.State = ProcState::St::Halted;
      return;
    case LirOpc::Wait: {
      if (!L.StableWait || !PS.Started) {
        // Register sensitivity (canonical ids) and invalidate earlier
        // timers. Stable waits do this exactly once.
        PS.Sensitivity.clear();
        ++PS.WakeGen;
        for (uint32_t J = 0; J != Op.OpsCount; ++J)
          PS.Sensitivity.push_back(
              Signals.canonical(F[Pool[Op.OpsBase + J]].sigId()));
      }
      if (Op.A >= 0)
        Sched.scheduleWake(Now.advance(F[Op.A].timeValue()),
                           {PI, PS.WakeGen});
      PS.Started = true;
      PS.State = ProcState::St::Waiting;
      PS.Pc = Op.Jmp0;
      return;
    }
    case LirOpc::Jmp:
    case LirOpc::CondJmp: {
      int32_t To = jumpTarget(Op, F);
      if (To <= Pc && !--Fuel) {
        PS.State = ProcState::St::Halted; // Runaway guard: treat as hung.
        return;
      }
      Pc = To;
      continue;
    }
    case LirOpc::Copy:
      F[Op.Dst] = F[Op.A];
      break;
    case LirOpc::Prb:
      execPrb(Op, F);
      break;
    case LirOpc::Drv:
      execDrv(Op, F, PS.Inst);
      break;
    case LirOpc::Pure:
      execPure(Op, Pool, F);
      break;
    case LirOpc::Var:
      PS.Memory.push_back(F[Op.A]);
      F[Op.Dst] = RtValue::makePointer(PS.Memory.size() - 1);
      break;
    case LirOpc::Ld:
      F[Op.Dst] = PS.Memory[F[Op.A].pointer()];
      break;
    case LirOpc::St:
      PS.Memory[F[Op.A].pointer()] = F[Op.B];
      break;
    case LirOpc::Call: {
      RtValue R = callOp(Op, F, Pool);
      if (Op.Dst >= 0)
        F[Op.Dst] = std::move(R);
      break;
    }
    default:
      assert(false && "illegal op in process");
      PS.State = ProcState::St::Halted;
      return;
    }
    ++Pc;
  }
}

//===----------------------------------------------------------------------===//
// Entity evaluation
//===----------------------------------------------------------------------===//

void LirEngine::execReg(EntState &ES, const LirOp &Op, bool Initial) {
  const RtValue *F = ES.Frame.data();
  SigRef Target = F[Op.A].sigRef();
  for (uint32_t TI = 0; TI != Op.TrigCount; ++TI) {
    const LirTrigger &T = ES.L->TriggerPool[Op.TrigBase + TI];
    const RtValue &Cur = F[T.Trig];
    uint32_t PrevIdx = Op.Imm + TI;
    bool HavePrev = ES.RegPrevValid[PrevIdx];
    RtValue Pv = HavePrev ? RtValue(ES.RegPrev[PrevIdx]) : Cur;
    ES.RegPrev[PrevIdx] = Cur;
    ES.RegPrevValid[PrevIdx] = true;

    bool CurT = Cur.isTruthy();
    bool PrevT = Pv.isTruthy();
    bool Fire = false;
    switch (T.Mode) {
    case RegMode::Rise: Fire = HavePrev && !PrevT && CurT; break;
    case RegMode::Fall: Fire = HavePrev && PrevT && !CurT; break;
    case RegMode::Both: Fire = HavePrev && PrevT != CurT; break;
    case RegMode::High: Fire = CurT; break;
    case RegMode::Low:  Fire = !CurT; break;
    }
    if (Initial && (T.Mode == RegMode::Rise || T.Mode == RegMode::Fall ||
                    T.Mode == RegMode::Both))
      Fire = false;
    if (!Fire)
      continue;
    if (T.Cond >= 0 && !F[T.Cond].isTruthy())
      continue;
    Time Delay;
    if (T.Delay >= 0)
      Delay = F[T.Delay].timeValue();
    Sched.scheduleUpdate(
        driveTarget(Now, Delay),
        {Target, F[T.Value], driverId(ES.Inst, Op.Origin) + TI});
    Sched.countScheduled(1);
  }
}

void LirEngine::evalEntity(uint32_t EI, bool Initial) {
  EntState &ES = Ents[EI];
  ++Stats.EntityEvals;
  const LirUnit &L = *ES.L;
  const int32_t *Pool = L.OperandPool.data();
  RtValue *F = ES.Frame.data();
  for (const LirOp &Op : L.Ops) {
    switch (Op.C) {
    case LirOpc::Pure:
      execPure(Op, Pool, F);
      break;
    case LirOpc::Prb:
      execPrb(Op, F);
      break;
    case LirOpc::Drv:
      execDrv(Op, F, ES.Inst);
      break;
    case LirOpc::Reg:
      execReg(ES, Op, Initial);
      break;
    case LirOpc::Del: {
      RtValue Src = Signals.read(F[Op.B].sigRef());
      RtValue &Prev = ES.DelPrev[Op.Imm];
      if (Initial || Prev != Src) {
        Prev = Src;
        Sched.scheduleUpdate(Now.advance(F[Op.Cc].timeValue()),
                             {F[Op.A].sigRef(), Src,
                              driverId(ES.Inst, Op.Origin)});
        Sched.countScheduled(1);
      }
      break;
    }
    default:
      assert(false && "illegal op in entity");
      break;
    }
  }
}

SimStats LirEngine::run() {
  return runEventLoop(*this, D, Opts, St, Resumed);
}

//===----------------------------------------------------------------------===//
// Checkpoint / restore
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds an interpreter RtValue from native lanes: one lane per
/// two-state int/enum (<= 64 bits), one lane per element for flat
/// arrays of such ints — the exact lane model of jit/Codegen.h.
RtValue lanesToValue(Type *Ty, const uint64_t *Lanes, uint32_t N) {
  if (Ty->isArray()) {
    auto *AT = cast<ArrayType>(Ty);
    unsigned EW = AT->element()->bitWidth();
    std::vector<RtValue> Es;
    Es.reserve(N);
    for (uint32_t I = 0; I != N; ++I)
      Es.push_back(RtValue(IntValue(EW, Lanes[I])));
    return RtValue::makeArray(std::move(Es));
  }
  return RtValue(IntValue(Ty->bitWidth(), Lanes[0]));
}

/// Loads an interpreter RtValue into native lanes. Invalid values are
/// left alone (never-written slots keep their constant preloads); any
/// other shape mismatch is ignored the same way — the slot would have
/// been written before being read in either execution model.
void valueToLanes(const RtValue &V, uint64_t *Lanes, uint32_t N) {
  if (V.isInt() && N == 1) {
    Lanes[0] = V.intValue().zextToU64();
    return;
  }
  if (V.isAggregate()) {
    const std::vector<RtValue> &Es = V.elements();
    for (uint32_t I = 0; I != N && I != Es.size(); ++I)
      if (Es[I].isInt())
        Lanes[I] = Es[I].intValue().zextToU64();
  }
}

} // namespace

void LirEngine::syncFromNative(ProcState &PS) {
  const jit::JitModule::NativeUnit *NU = Prog->JitMod->nativeFor(PS.L);
  const jit::UnitPlan &Plan = NU->Plan;
  const LirUnit &L = *PS.L;
  uint64_t *Lanes = PS.Jit->Lanes.data();

  // The native resumption token maps onto the interpreter's stored pc:
  // entry E resumes after wait E-1, i.e. at that wait's continuation.
  PS.Pc = PS.Entry == 0
              ? 0
              : L.Ops[Plan.Waits[PS.Entry - 1].Pc].Jmp0;

  // Laned slots back into the frame. Slots outside the lane model
  // (signal bindings, constant times) were never moved out of it.
  for (uint32_t S = 0; S != L.NumSlots; ++S) {
    if (Plan.LaneOf[S] < 0 || !Plan.SlotType[S])
      continue;
    PS.Frame[S] =
        lanesToValue(Plan.SlotType[S], Lanes + Plan.LaneOf[S],
                     Plan.LanesOf[S]);
  }

  // Var cells: the native code holds them in static lanes; rebuild the
  // interpreter's memory with one cell per Var op (pc order) and point
  // the pointer slots at them — the state an interpreted execution of
  // the same (straight-line-var) process produces.
  PS.Memory.clear();
  int32_t VI = 0;
  for (const LirOp &Op : L.Ops) {
    if (Op.C != LirOpc::Var)
      continue;
    int32_t Lane = Plan.CellLane[VI++];
    if (Lane < 0 || !Plan.SlotType[Op.A])
      continue;
    PS.Memory.push_back(lanesToValue(Plan.SlotType[Op.A], Lanes + Lane,
                                     Plan.LanesOf[Op.A]));
    PS.Frame[Op.Dst] =
        RtValue::makePointer(uint32_t(PS.Memory.size() - 1));
  }
}

bool LirEngine::syncToNative(ProcState &PS) {
  const jit::JitModule::NativeUnit *NU = Prog->JitMod->nativeFor(PS.L);
  const jit::UnitPlan &Plan = NU->Plan;
  const LirUnit &L = *PS.L;
  uint64_t *Lanes = PS.Jit->Lanes.data();

  // Map the interpreter pc back onto a native resumption entry. Halted
  // processes never run again, so any token works for them.
  if (PS.State == ProcState::St::Halted || (!PS.Started && PS.Pc == 0)) {
    PS.Entry = 0;
  } else {
    long long Entry = -1;
    for (size_t I = 0; I != Plan.Waits.size(); ++I)
      if (L.Ops[Plan.Waits[I].Pc].Jmp0 == PS.Pc) {
        Entry = Plan.Waits[I].ResumeEntry;
        break;
      }
    if (Entry < 0)
      return false; // No native entry at this pc: caller deopts.
    PS.Entry = Entry;
  }

  for (uint32_t S = 0; S != L.NumSlots; ++S)
    if (Plan.LaneOf[S] >= 0)
      valueToLanes(PS.Frame[S], Lanes + Plan.LaneOf[S], Plan.LanesOf[S]);

  int32_t VI = 0;
  for (const LirOp &Op : L.Ops) {
    if (Op.C != LirOpc::Var)
      continue;
    int32_t Lane = Plan.CellLane[VI++];
    if (Lane < 0)
      continue;
    const RtValue &P = PS.Frame[Op.Dst];
    if (P.isPointer() && P.pointer() < PS.Memory.size())
      valueToLanes(PS.Memory[P.pointer()], Lanes + Lane,
                   Plan.LanesOf[Op.A]);
  }
  return true;
}

void LirEngine::checkpoint(std::vector<uint8_t> &Out) {
  std::vector<ckpt::ProcRecord> PRecs(Procs.size());
  for (size_t I = 0; I != Procs.size(); ++I) {
    ProcState &PS = Procs[I];
    // Fold native lane state back into the engine-neutral frame so the
    // image restores identically with or without the JIT.
    if (PS.Jit)
      syncFromNative(PS);
    ckpt::ProcRecord &Rec = PRecs[I];
    Rec.State = static_cast<uint8_t>(PS.State);
    Rec.Started = PS.Started;
    Rec.Pc = PS.Pc;
    Rec.WakeGen = PS.WakeGen;
    Rec.Sens = PS.Sensitivity;
    Rec.Frame = PS.Frame;
    Rec.Memory = PS.Memory;
  }
  std::vector<ckpt::EntRecord> ERecs(Ents.size());
  for (size_t I = 0; I != Ents.size(); ++I) {
    const EntState &ES = Ents[I];
    ERecs[I] = {ES.Frame, ES.RegPrev, ES.RegPrevValid, ES.DelPrev};
  }
  ckpt::writeImage(Out, EngineName, D, Cache, St, PRecs, ERecs);
}

bool LirEngine::restore(const std::vector<uint8_t> &In, std::string &Err) {
  std::vector<ckpt::ProcRecord> PRecs;
  std::vector<ckpt::EntRecord> ERecs;
  if (!ckpt::readImage(In, D, Cache, St, PRecs, ERecs, Err))
    return false;
  for (size_t I = 0; I != Procs.size(); ++I) {
    ProcState &PS = Procs[I];
    ckpt::ProcRecord &Rec = PRecs[I];
    PS.State = static_cast<ProcState::St>(Rec.State);
    PS.Started = Rec.Started != 0;
    PS.Pc = static_cast<int32_t>(Rec.Pc);
    PS.WakeGen = Rec.WakeGen;
    PS.Sensitivity = std::move(Rec.Sens);
    PS.Frame = std::move(Rec.Frame);
    PS.Memory = std::move(Rec.Memory);
    if (PS.Jit && !syncToNative(PS)) {
      // The image's resumption point has no native entry here (it came
      // from a run with different JIT coverage): this instance falls
      // back to interpretation, which restored exactly above.
      PS.Jit = nullptr;
      --JitSt.NativeProcs;
      ++JitSt.InterpProcs;
    }
  }
  for (size_t I = 0; I != Ents.size(); ++I) {
    EntState &ES = Ents[I];
    ckpt::EntRecord &Rec = ERecs[I];
    ES.Frame = std::move(Rec.Frame);
    ES.RegPrev = std::move(Rec.RegPrev);
    ES.RegPrevValid = std::move(Rec.RegPrevValid);
    ES.DelPrev = std::move(Rec.DelPrev);
  }
  Resumed = true;
  return true;
}
