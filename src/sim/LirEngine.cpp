//===- sim/LirEngine.cpp - Direct LIR execution core ---------------------------===//

#include "sim/LirEngine.h"
#include "ir/Type.h"
#include "jit/Runtime.h"
#include "sim/Checkpoint.h"
#include "sim/RtOps.h"
#include "sim/Wave.h"

#include <algorithm>
#include <chrono>

using namespace llhd;

// The two dispatch loops below (exec, which runs processes and functions,
// and evalEntity) each have one switch over every LirOpc and no default:
// this file builds with -Werror=switch, so an opcode missing from a loop
// is a compile error. Each loop expands this case into one per word pure
// opcode, with its op `Op` and word file `W` in scope: evalWord then runs
// with a constant IR opcode, and a word op costs one indirect jump.
#define LLHD_WORD_EXEC(O)                                                     \
  case LirOpc::O##W:                                                          \
    execWord<Opcode::O>(Op, W);                                               \
    break;

namespace {
/// Run state for a program; invalid designs get an inert default (they
/// are never run, only queried for the error).
SimState makeState(const Design &D, const SimOptions &O) {
  return D.ok() ? SimState(D, O.TraceMode, O.Seed) : SimState();
}

/// Where a Jmp, CondJmp or CondJmpW op goes in frame (W, F).
int32_t jumpTarget(const LirOp &Op, const uint64_t *W, const RtValue *F) {
  bool Taken = Op.C == LirOpc::CondJmpW  ? W[Op.A] != 0
               : Op.C == LirOpc::CondJmp ? F[Op.A].isTruthy()
                                         : false;
  return Taken ? Op.Jmp1 : Op.Jmp0;
}

/// Sorts and dedups a wake list; most lists hold at most one unit.
inline void sortUnique(std::vector<uint32_t> &V) {
  if (V.size() < 2)
    return;
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
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
      L.preload(UI, PS.Words, PS.Frame);
      PS.WordSigs = wordSignals(L, PS.Frame);
      Procs.push_back(std::move(PS));
    } else {
      EntState ES;
      ES.L = &L;
      ES.Inst = &UI;
      L.preload(UI, ES.Words, ES.Frame);
      ES.WordSigs = wordSignals(L, ES.Frame);
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
    // An activation touches the word file and the context's site tables
    // together. A copy made now lands next to those in the heap instead
    // of among the RtValue files build() allocated; paired suite-warm
    // runs read cycles_per_s 2% higher with it.
    std::vector<uint64_t> Near(PS.Words);
    PS.Words.swap(Near);
    PS.Jit = Ctx.get();
    JitCtxs.push_back(std::move(Ctx));
    ++JitSt.NativeProcs;
  }
}

const std::string &LirEngine::jitSource() const {
  static const std::string Empty;
  return Prog->JitMod ? Prog->JitMod->Source : Empty;
}

template <typename FillFn>
void LirEngine::suspend(uint32_t PI, FillFn &&FillSens, const Time *Timeout) {
  ProcState &PS = Procs[PI];
  if (!PS.L->StableWait || !PS.Started) {
    PS.Sensitivity.clear();
    ++PS.WakeGen;
    FillSens(PS.Sensitivity);
  }
  if (Timeout)
    Sched.scheduleWake(Now.advance(*Timeout), {PI, PS.WakeGen});
  PS.Started = true;
  PS.State = ProcState::St::Waiting;
}

void LirEngine::runProcessNative(uint32_t PI) {
  ProcState &PS = Procs[PI];
  jit::ProcContext &C = *PS.Jit;
  long long R = C.Fn(jit::apiTable(), &C, PS.Words.data(), PS.Entry);
  if (R < 0) {
    // -1: halt; -2: fuel exhausted — same treatment as the
    // interpreter's runaway guard.
    PS.State = ProcState::St::Halted;
    return;
  }
  const jit::WaitSite &W = C.Waits[R];
  suspend(
      PI,
      [&W](std::vector<SignalId> &Sens) {
        Sens.assign(W.Sens.begin(), W.Sens.end());
      },
      W.HasTimeout ? &W.Timeout : nullptr);
  // The interpreter's pc names the same resumption point, so the frame
  // stays restorable, checkpointable and interpretable at any suspension.
  PS.Entry = W.ResumeEntry;
  PS.Pc = W.ResumePc;
}

//===----------------------------------------------------------------------===//
// Function execution (immediate, §2.4.1)
//===----------------------------------------------------------------------===//

// Each instantiation has one caller (runProcess, callFunction), which it
// is forced into: left out of line, the call cost every activation ~5%
// of suite-interp-vcd's cycles_per_s.
template <bool InFn>
[[gnu::always_inline]] inline int32_t
LirEngine::exec(const LirUnit &L, int32_t Pc, uint64_t *W, RtValue *F,
                const SignalId *WS, const void *Tag,
                std::vector<RtValue> &Mem) {
  const LirOp *Ops = L.Ops.data();
  uint64_t Fuel = MaxBackwardJumps;
  for (;;) {
    const LirOp &Op = Ops[Pc];
    switch (Op.C) {
    LLHD_WORD_OPS(LLHD_WORD_EXEC)
    case LirOpc::PrbW:
      if (InFn)
        return Pc;
      execPrbW(Op, W, F, WS);
      break;
    case LirOpc::DrvW:
    case LirOpc::Drv:
      if (InFn)
        return Pc;
      execDrv(L, Op, W, F, WS, Tag);
      break;
    case LirOpc::CopyW:
      W[Op.Dst] = W[Op.A];
      break;
    case LirOpc::ArrW:
      execArrW(L, Op, W);
      break;
    case LirOpc::VarW:
      W[Op.Imm] = W[Op.A];
      break;
    case LirOpc::LdW:
      W[Op.Dst] = W[Op.Imm];
      break;
    case LirOpc::StW:
      W[Op.Imm] = W[Op.B];
      break;
    case LirOpc::CondJmpW:
    case LirOpc::CondJmp:
    case LirOpc::Jmp: {
      int32_t To = jumpTarget(Op, W, F);
      if (To <= Pc && !--Fuel)
        return -1; // Runaway guard.
      Pc = To;
      continue;
    }
    case LirOpc::Pure:
      execPure(L, Op, W, F);
      break;
    case LirOpc::Prb:
      if (InFn)
        return Pc;
      execPrb(L, Op, W, F, WS);
      break;
    case LirOpc::Copy:
      L.copy(Op.Dst, Op.A, W, F);
      break;
    case LirOpc::Var:
      L.copy(Op.Imm, Op.A, W, F);
      break;
    case LirOpc::Ld:
      L.copy(Op.Dst, Op.Imm, W, F);
      break;
    case LirOpc::St:
      L.copy(Op.Imm, Op.B, W, F);
      break;
    case LirOpc::VarM:
    case LirOpc::LdM:
    case LirOpc::StM:
      execMem(L, Op, W, F, Mem);
      break;
    case LirOpc::Call:
      callOp(L, Op, W, F);
      break;
    case LirOpc::Wait:
    case LirOpc::Halt:
    case LirOpc::Ret:
    case LirOpc::Reg:
    case LirOpc::Del:
      return Pc;
    }
    ++Pc;
  }
}

RtValue LirEngine::callFunction(const LirOp &Call,
                                std::vector<RtValue> &Args) {
  Unit *Fn = Call.Callee;
  if (Call.Intr != IntrinsicKind::None)
    return callIntrinsic(Call.Intr, *Fn, Args, Opts, St);
  // Eagerly lowered by the program (call-graph fixpoint); pure lookup.
  const LirUnit &L = *Cache.lookup(Fn);
  auto FR = FnPool.lease();
  // Neither file needs clearing: every slot is written before it is
  // read, so a pooled frame keeps what an earlier call left in it.
  FR->Words.resize(L.NumWords);
  FR->Frame.resize(L.fileSize());
  FR->Memory.clear();
  uint64_t *W = FR->Words.data();
  RtValue *F = FR->Frame.data();
  for (const auto &[Slot, V] : L.ConstWords)
    W[Slot] = V;
  for (const auto &[Slot, V] : L.ConstSlots)
    F[Slot] = V;
  for (unsigned I = 0; I != Fn->inputs().size(); ++I)
    L.store(Fn->input(I)->valueNumber(), std::move(Args[I]), W, F);

  int32_t Pc = exec<true>(L, 0, W, F, nullptr, nullptr, FR->Memory);
  if (Pc < 0)
    return defaultValue(Fn->returnType()); // Runaway guard.
  const LirOp &Ret = L.Ops[Pc];
  assert(Ret.C == LirOpc::Ret && "illegal op in function");
  if (Ret.C != LirOpc::Ret || Ret.A < 0)
    return RtValue();
  L.boxed(Ret.A, W, F);
  return std::move(F[Ret.A]);
}

void LirEngine::callOp(const LirUnit &L, const LirOp &Op, uint64_t *W,
                       RtValue *F) {
  const int32_t *Args = L.OperandPool.data() + Op.OpsBase;
  // The intrinsics with no result act in place: no argument buffer.
  switch (Op.Intr) {
  case IntrinsicKind::Assert:
    intrinsicAssert(St, Op.OpsCount == 0 || L.truthy(Args[0], W, F));
    return;
  case IntrinsicKind::Finish:
    intrinsicFinish(St);
    return;
  default:
    break;
  }
  RtValue R;
  {
    auto Lease = ArgPool.lease();
    std::vector<RtValue> &Buf = *Lease;
    Buf.clear();
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      Buf.push_back(L.boxed(Args[J], W, F));
    R = callFunction(Op, Buf);
  }
  if (Op.Dst >= 0)
    L.store(Op.Dst, std::move(R), W, F);
}

void LirEngine::execMem(const LirUnit &L, const LirOp &Op, uint64_t *W,
                        RtValue *F, std::vector<RtValue> &Mem) {
  switch (Op.C) {
  case LirOpc::VarM:
    Mem.push_back(L.boxed(Op.A, W, F));
    F[Op.Dst] = RtValue::makePointer(Mem.size() - 1);
    break;
  case LirOpc::LdM:
    L.store(Op.Dst, Mem[F[Op.A].pointer()], W, F);
    break;
  case LirOpc::StM:
    Mem[F[Op.A].pointer()] = L.boxed(Op.B, W, F);
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Process execution
//===----------------------------------------------------------------------===//

void LirEngine::runProcess(uint32_t PI) {
  ProcState &PS = Procs[PI];
  if (PS.State == ProcState::St::Halted)
    return;
  PS.State = ProcState::St::Ready;
  ++Stats.ProcessRuns;
  if (PS.Jit) {
    runProcessNative(PI);
    return;
  }
  const LirUnit &L = *PS.L;
  RtValue *F = PS.Frame.data();
  int32_t Pc = exec<false>(L, PS.Pc, PS.Words.data(), F, PS.WordSigs.data(),
                           PS.Inst, PS.Memory);
  if (Pc >= 0 && L.Ops[Pc].C == LirOpc::Wait) {
    const LirOp &Op = L.Ops[Pc];
    const int32_t *Obs = L.OperandPool.data() + Op.OpsBase;
    Time Timeout = Op.A >= 0 ? F[Op.A].timeValue() : Time();
    suspend(
        PI,
        [&](std::vector<SignalId> &Sens) {
          for (uint32_t J = 0; J != Op.OpsCount; ++J)
            Sens.push_back(Signals.canonical(F[Obs[J]].sigId()));
        },
        Op.A >= 0 ? &Timeout : nullptr);
    PS.Pc = Op.Jmp0;
    return;
  }
  // A halt, or the runaway guard: treat as hung.
  assert((Pc < 0 || L.Ops[Pc].C == LirOpc::Halt) && "illegal op in process");
  PS.State = ProcState::St::Halted;
}

//===----------------------------------------------------------------------===//
// Entity evaluation
//===----------------------------------------------------------------------===//

void LirEngine::execReg(EntState &ES, const LirOp &Op, bool Initial) {
  const LirUnit &L = *ES.L;
  uint64_t *W = ES.Words.data();
  RtValue *F = ES.Frame.data();
  SigRef Target = F[Op.A].sigRef();
  for (uint32_t TI = 0; TI != Op.TrigCount; ++TI) {
    const LirTrigger &T = L.TriggerPool[Op.TrigBase + TI];
    const RtValue &Cur = L.boxed(T.Trig, W, F);
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
    if (T.Cond >= 0 && !L.truthy(T.Cond, W, F))
      continue;
    Time Delay;
    if (T.Delay >= 0)
      Delay = F[T.Delay].timeValue();
    Sched.scheduleUpdate(driveTarget(Now, Delay), Target,
                         L.boxed(T.Value, W, F),
                         driverId(ES.Inst, Op.Origin) + TI);
    Sched.countScheduled(1);
  }
}

void LirEngine::evalEntity(uint32_t EI, bool Initial) {
  EntState &ES = Ents[EI];
  ++Stats.EntityEvals;
  const LirUnit &L = *ES.L;
  uint64_t *W = ES.Words.data();
  RtValue *F = ES.Frame.data();
  const SignalId *WS = ES.WordSigs.data();
  for (const LirOp &Op : L.Ops) {
    switch (Op.C) {
    LLHD_WORD_OPS(LLHD_WORD_EXEC)
    case LirOpc::PrbW:
      execPrbW(Op, W, F, WS);
      break;
    case LirOpc::DrvW:
    case LirOpc::Drv:
      execDrv(L, Op, W, F, WS, ES.Inst);
      break;
    case LirOpc::Pure:
      execPure(L, Op, W, F);
      break;
    case LirOpc::ArrW:
      execArrW(L, Op, W);
      break;
    case LirOpc::Prb:
      execPrb(L, Op, W, F, WS);
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
    case LirOpc::Jmp:
    case LirOpc::CondJmp:
    case LirOpc::CondJmpW:
    case LirOpc::Copy:
    case LirOpc::CopyW:
    case LirOpc::Wait:
    case LirOpc::Halt:
    case LirOpc::Ret:
    case LirOpc::Call:
    case LirOpc::Var:
    case LirOpc::VarW:
    case LirOpc::VarM:
    case LirOpc::Ld:
    case LirOpc::LdW:
    case LirOpc::LdM:
    case LirOpc::St:
    case LirOpc::StW:
    case LirOpc::StM:
      assert(false && "illegal op in entity");
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

SimStats LirEngine::run() {
  // The design is shared immutable state (batch instances run it
  // concurrently); everything this loop mutates lives in the run's
  // SimState and in Procs/Ents.
  Scheduler &Sched = St.Sched;
  Trace &Tr = St.Tr;
  Time &Now = St.Now;
  SimStats &Stats = St.Stats;
  SignalTable &Signals = St.Signals;
  // Dynamic process sensitivity, re-registered at every suspension.
  WakeIndex WIdx;
  WIdx.resize(Signals.size());
  auto registerSensitivity = [&](uint32_t PI) {
    const ProcState &PS = Procs[PI];
    if (PS.State == ProcState::St::Waiting)
      WIdx.watch(PI, PS.WakeGen, PS.Sensitivity);
  };
  auto curGen = [this](uint32_t PI) { return Procs[PI].WakeGen; };

  // Optional waveform observer: header and initial state go out before
  // the first event (initialisation only schedules, it never commits a
  // signal value, so the elaboration-time values are the #0 state). A
  // resumed run instead seeds the writer's last-value cache from the
  // restored signal table and appends — no header, no $dumpvars.
  WaveWriter *Wave = Opts.Wave;
  if (Wave) {
    if (Resumed)
      Wave->resume(Signals);
    else
      Wave->begin(Signals);
  }

  if (!Resumed) {
    // Initialisation (§2.4.3): processes run to their first suspension,
    // entities evaluate once.
    Now = Time();
    for (uint32_t PI = 0; PI != Procs.size(); ++PI) {
      runProcess(PI);
      registerSensitivity(PI);
    }
    for (uint32_t EI = 0; EI != Ents.size(); ++EI)
      evalEntity(EI, /*Initial=*/true);
  } else {
    // Restored processes are already suspended mid-simulation; rebuild
    // the (loop-local) wake index from their checkpointed sensitivity.
    for (uint32_t PI = 0; PI != Procs.size(); ++PI)
      registerSensitivity(PI);
  }

  const RunControl &RC = Opts.RC;
  using WallClock = std::chrono::steady_clock;
  WallClock::time_point Deadline{};
  if (RC.WallTimeoutSec > 0)
    Deadline = WallClock::now() +
               std::chrono::duration_cast<WallClock::duration>(
                   std::chrono::duration<double>(RC.WallTimeoutSec));
  uint64_t NextCkptFs =
      RC.CheckpointEveryFs
          ? (Now.Fs / RC.CheckpointEveryFs + 1) * RC.CheckpointEveryFs
          : 0;

  uint64_t DeltasAtInstant = 0;
  uint64_t LastFs = Resumed ? Now.Fs : ~0ull;
  // Scratch reused across slots; capacity settles after a few steps.
  SlotEvents Ev;
  std::vector<SignalId> Changed;
  std::vector<uint32_t> ProcsToRun, EntsToRun;
  std::vector<uint8_t> ChangedMark(Signals.size(), 0);
  while (!Sched.empty() && !St.FinishRequested) {
    Time T = Sched.nextTime();
    if (T > Opts.MaxTime)
      break;
    if (T.Fs != LastFs) {
      // A physical-instant boundary: the previous instant is fully
      // settled (the waveform writer's pending buffer holds exactly that
      // instant), so every run-control action fires here and only here.
      StopReason Why = StopReason::None;
      if (RC.StopFlag && *RC.StopFlag)
        Why = StopReason::Interrupted;
      else if (RC.MaxSteps && Stats.Steps >= RC.MaxSteps)
        Why = StopReason::DeltaBudget;
      else if (RC.MaxEvents && Sched.totalScheduled() >= RC.MaxEvents)
        Why = StopReason::EventBudget;
      else if (RC.WallTimeoutSec > 0 && WallClock::now() >= Deadline)
        Why = StopReason::WallTimeout;
      if (RC.Checkpoint &&
          ((NextCkptFs && T.Fs >= NextCkptFs) ||
           (Why != StopReason::None && RC.CheckpointOnStop))) {
        // Flush the settled instant first so the on-disk VCD and the
        // checkpoint cover the same prefix. Byte-neutral: the writer
        // would emit the identical bytes on the instant's next change.
        if (Wave)
          Wave->flushNow();
        if (!RC.Checkpoint(Now))
          Why = StopReason::CheckpointError;
        if (NextCkptFs)
          while (NextCkptFs <= T.Fs)
            NextCkptFs += RC.CheckpointEveryFs;
      }
      if (Why != StopReason::None) {
        Stats.Stop = Why;
        break;
      }
      LastFs = T.Fs;
      DeltasAtInstant = 0;
    } else if (++DeltasAtInstant > Opts.MaxDeltasPerInstant) {
      Stats.DeltaOverflow = true;
      Stats.Stop = StopReason::Oscillation;
      // Diagnose the cycle instead of just dying: the processes woken
      // and the signals changed in the previous delta are the cycling
      // set (the instant has been spinning for MaxDeltasPerInstant
      // deltas, so the steady-state combatants are in these vectors).
      for (uint32_t PI : ProcsToRun)
        Stats.OscProcs.push_back(Procs[PI].Inst->HierName);
      for (SignalId S : Changed)
        Stats.OscSigs.push_back(Signals.name(S));
      auto trim = [](std::vector<std::string> &V) {
        std::sort(V.begin(), V.end());
        V.erase(std::unique(V.begin(), V.end()), V.end());
        if (V.size() > 16)
          V.resize(16);
      };
      trim(Stats.OscProcs);
      trim(Stats.OscSigs);
      break;
    }
    Now = T;
    ++Stats.Steps;

    Sched.pop(Ev);

    // Apply signal updates in scheduling order, word and general lanes
    // interleaved as filed; collect changed canonical signals (deduped
    // via marks, in first-change order).
    Changed.clear();
    for (const UpdateEntry &E : Ev.Entries) {
      SignalId Canon = commitUpdate(Signals, Ev, E);
      if (Canon == InvalidSignal)
        continue;
      if (!ChangedMark[Canon]) {
        ChangedMark[Canon] = 1;
        Changed.push_back(Canon);
      }
      const RtValue &V = Signals.storedValue(Canon);
      Tr.record(Now, Canon, V);
      if (Wave)
        Wave->onChange(Now, Canon, V);
    }
    for (SignalId S : Changed)
      ChangedMark[S] = 0;

    // Wake set: fresh timers plus sensitivity matches, each a direct
    // index lookup. Units run in ascending index order for determinism.
    ProcsToRun.clear();
    for (const ProcWake &W : Ev.Wakes)
      if (Procs[W.Proc].WakeGen == W.Gen &&
          Procs[W.Proc].State == ProcState::St::Waiting)
        ProcsToRun.push_back(W.Proc);
    EntsToRun.clear();
    for (SignalId S : Changed) {
      const std::vector<uint32_t> &Ws = D.EntityWatchers[S];
      EntsToRun.insert(EntsToRun.end(), Ws.begin(), Ws.end());
      WIdx.collect(S, curGen, ProcsToRun);
    }
    sortUnique(ProcsToRun);
    sortUnique(EntsToRun);

    for (uint32_t PI : ProcsToRun) {
      if (Procs[PI].L->StableWait) {
        // Stable sensitivity: the registration made at the first
        // suspension stays live (the generation never moves, and no
        // timers exist that would need invalidating).
        runProcess(PI);
        continue;
      }
      ++Procs[PI].WakeGen; // Invalidate pending timers.
      runProcess(PI);
      registerSensitivity(PI);
    }
    for (uint32_t EI : EntsToRun)
      evalEntity(EI, /*Initial=*/false);
  }

  if (Wave)
    Wave->finish();
  Stats.EndTime = Now;
  Stats.DrivesScheduled = Sched.totalScheduled();
  Stats.WordDrives = Sched.wordScheduled();
  Stats.Finished = St.FinishRequested;
  if (!Stats.Finished) {
    bool AllHalted = !Procs.empty();
    for (const ProcState &PS : Procs)
      AllHalted &= PS.State == ProcState::St::Halted;
    Stats.Finished = AllHalted || Sched.empty();
  }
  return Stats;
}

//===----------------------------------------------------------------------===//
// Checkpoint / restore
//===----------------------------------------------------------------------===//

namespace {

/// The slots of frame (W, F) as the image's RtValue frame: word slots and
/// word arrays boxed.
std::vector<RtValue> imageFrame(const LirUnit &L, const uint64_t *W,
                                RtValue *F) {
  std::vector<RtValue> Out;
  Out.reserve(L.NumSlots);
  for (uint32_t S = 0; S != L.NumSlots; ++S)
    Out.push_back(L.boxed(S, W, F));
  return Out;
}

/// Loads the image frame \p In into the slots of frame (W, F).
void loadImageFrame(const LirUnit &L, std::vector<RtValue> &In, uint64_t *W,
                    RtValue *F) {
  for (uint32_t S = 0; S != L.NumSlots; ++S)
    L.store(S, std::move(In[S]), W, F);
}

/// The fixed-cell var ops of \p L (Var and VarW), in pc order.
template <typename Fn> void forEachCell(const LirUnit &L, Fn &&Visit) {
  for (const LirOp &Op : L.Ops)
    if (Op.C == LirOpc::Var || Op.C == LirOpc::VarW)
      Visit(Op);
}

} // namespace

bool LirEngine::resumeNative(ProcState &PS) {
  // Halted processes never run again, so any token works for them.
  if (PS.State == ProcState::St::Halted || (!PS.Started && PS.Pc == 0)) {
    PS.Entry = 0;
    return true;
  }
  for (const jit::WaitSite &W : PS.Jit->Waits)
    if (W.ResumePc == PS.Pc) {
      PS.Entry = W.ResumeEntry;
      return true;
    }
  return false;
}

void LirEngine::checkpoint(std::vector<uint8_t> &Out) {
  std::vector<ckpt::ProcRecord> PRecs(Procs.size());
  for (size_t I = 0; I != Procs.size(); ++I) {
    ProcState &PS = Procs[I];
    const LirUnit &L = *PS.L;
    ckpt::ProcRecord &Rec = PRecs[I];
    Rec.State = static_cast<uint8_t>(PS.State);
    Rec.Started = PS.Started;
    Rec.Pc = PS.Pc;
    Rec.WakeGen = PS.WakeGen;
    Rec.Sens = PS.Sensitivity;
    Rec.Frame = imageFrame(L, PS.Words.data(), PS.Frame.data());
    // Dynamic memory, then one cell per fixed var in pc order, its
    // pointer slot aimed at it.
    Rec.Memory = PS.Memory;
    forEachCell(L, [&](const LirOp &Op) {
      Rec.Frame[Op.Dst] = RtValue::makePointer(Rec.Memory.size());
      Rec.Memory.push_back(L.boxed(Op.Imm, PS.Words.data(), PS.Frame.data()));
    });
  }
  std::vector<ckpt::EntRecord> ERecs(Ents.size());
  for (size_t I = 0; I != Ents.size(); ++I) {
    EntState &ES = Ents[I];
    ERecs[I] = {imageFrame(*ES.L, ES.Words.data(), ES.Frame.data()),
                ES.RegPrev, ES.RegPrevValid, ES.DelPrev};
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
    const LirUnit &L = *PS.L;
    ckpt::ProcRecord &Rec = PRecs[I];
    PS.State = static_cast<ProcState::St>(Rec.State);
    PS.Started = Rec.Started != 0;
    PS.Pc = static_cast<int32_t>(Rec.Pc);
    PS.WakeGen = Rec.WakeGen;
    PS.Sensitivity = std::move(Rec.Sens);
    uint64_t *W = PS.Words.data();
    RtValue *F = PS.Frame.data();
    // A fixed cell takes the memory cell its var's pointer slot names.
    forEachCell(L, [&](const LirOp &Op) {
      const RtValue &P = Rec.Frame[Op.Dst];
      if (P.isPointer() && P.pointer() < Rec.Memory.size())
        L.store(Op.Imm, Rec.Memory[P.pointer()], W, F);
    });
    loadImageFrame(L, Rec.Frame, W, F);
    PS.Memory.clear();
    if (L.HasMemory)
      PS.Memory = std::move(Rec.Memory);
    if (PS.Jit && !resumeNative(PS)) {
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
    loadImageFrame(*ES.L, Rec.Frame, ES.Words.data(), ES.Frame.data());
    ES.RegPrev = std::move(Rec.RegPrev);
    ES.RegPrevValid = std::move(Rec.RegPrevValid);
    ES.DelPrev = std::move(Rec.DelPrev);
  }
  Resumed = true;
  return true;
}
