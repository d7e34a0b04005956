//===- sim/LirEngine.h - Direct LIR execution core --------------*- C++ -*-===//
//
// The shared LIR execution core behind the reference interpreter
// (LLHD-Sim) and the Blaze engine: per-instance frames are dense slot
// arrays preloaded with constants and signal bindings, processes run a
// flat pc-dispatch loop over LirOps, entities run a single front-to-back
// sweep, and functions execute from pooled frames. The classifier's fast
// paths live here: PureComb processes re-evaluate via a straight sweep
// with no control-flow dispatch, and ClockedReg processes resume from a
// compile-time-constant pc with no sensitivity re-registration or wake-
// generation churn (see procSenseStable / EventLoop.h).
//
// The two engines instantiating this core (through the one InterpSim
// facade) differ only in what they feed it: Interp lowers the caller's
// module as-is; Blaze clones and runs the optimisation pipeline first and
// compiles native code (its "JIT" configuration).
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_LIRENGINE_H
#define LLHD_SIM_LIRENGINE_H

#include "jit/Jit.h"
#include "sim/Design.h"
#include "sim/Interp.h" // SimOptions.
#include "sim/Lir.h"
#include "sim/Program.h"
#include "sim/SimState.h"
#include "support/DepthPool.h"

#include <memory>
#include <vector>

namespace llhd {

namespace jit {
class JitModule;
struct ProcContext;
} // namespace jit

/// Direct executor of the lowered runtime IR; implements the EventLoop
/// engine contract.
///
/// One engine is one run: it holds the per-run SimState plus the
/// per-instance execution frames, and reads everything else from an
/// immutable LirProgram. Batch mode constructs N engines over one
/// shared program.
class LirEngine {
public:
  /// Runs over \p P, an immutable program shared with any number of
  /// concurrent sibling engines. Call build() before run() when the
  /// design is valid.
  LirEngine(std::shared_ptr<const LirProgram> P, SimOptions O);
  ~LirEngine();

  /// Sets up the per-instance execution state (frames preloaded from the
  /// program's lowering, native bindings for JIT-compiled units).
  void build();

  /// Runs the shared event loop to completion. After restore(), the loop
  /// continues from the checkpointed instant instead of initialising.
  SimStats run();

  //===------------------------------------------------------------------===//
  // Checkpoint / restore (sim/Checkpoint.h)
  //===------------------------------------------------------------------===//

  /// Serializes the full runtime state. Natively-executing processes are
  /// synchronised back into their interpreter-visible frames first, so
  /// the image is engine-neutral (restorable with or without the JIT).
  void checkpoint(std::vector<uint8_t> &Out);

  /// Restores a checkpoint() image into this freshly-built engine.
  /// Natively-bound processes reload their lane state from the restored
  /// frames; an instance whose resumption point has no native entry
  /// (e.g. the image came from a differently-JITted run) deopts to
  /// interpretation by itself. Returns false and sets \p Err on a
  /// version/module mismatch or a corrupt image.
  bool restore(const std::vector<uint8_t> &In, std::string &Err);

  //===------------------------------------------------------------------===//
  // EventLoop hooks
  //===------------------------------------------------------------------===//

  uint32_t numProcs() const { return Procs.size(); }
  uint32_t numEnts() const { return Ents.size(); }
  bool procWaiting(uint32_t PI) const {
    return Procs[PI].State == ProcState::St::Waiting;
  }
  bool procHalted(uint32_t PI) const {
    return Procs[PI].State == ProcState::St::Halted;
  }
  const std::vector<SignalId> &procSensitivity(uint32_t PI) const {
    return Procs[PI].Sensitivity;
  }
  uint64_t procWakeGen(uint32_t PI) const { return Procs[PI].WakeGen; }
  void procBumpWakeGen(uint32_t PI) { ++Procs[PI].WakeGen; }
  /// True when the process's registered sensitivity outlives every
  /// activation (single static wait): the event loop then registers it
  /// once and skips the per-activation invalidate/re-register cycle.
  bool procSenseStable(uint32_t PI) const {
    return Procs[PI].L->StableWait;
  }
  bool finishRequested() const { return St.FinishRequested; }
  std::string procName(uint32_t PI) const {
    return Procs[PI].Inst->HierName;
  }

  void runProcess(uint32_t PI);
  void evalEntity(uint32_t EI, bool Initial);

  //===------------------------------------------------------------------===//
  // JIT surface
  //===------------------------------------------------------------------===//

  /// What the JIT did during build(); Enabled is false when it was off.
  const jit::JitStats &jitStats() const { return JitSt; }
  /// The generated translation unit ("" when nothing was emitted).
  const std::string &jitSource() const;

  //===------------------------------------------------------------------===//
  // Program (shared, immutable) and run state (private, mutable)
  //===------------------------------------------------------------------===//

  /// The compile-once artifact this run executes; possibly shared with
  /// concurrent sibling runs — never written.
  std::shared_ptr<const LirProgram> Prog;
  SimOptions Opts;
  /// Everything this run mutates: signal values/drivers, event wheel,
  /// trace, clock, stats, stimulus RNG.
  SimState St;
  /// Convenience aliases into Prog / St, so execution code reads as
  /// before the layout/state split. The references pin the split: D and
  /// Cache are const (shared), the rest is this run's own state.
  const Design &D;
  const LirCache &Cache;
  SignalTable &Signals;
  Scheduler &Sched;
  Trace &Tr;
  SimStats &Stats;
  Time &Now;
  /// Name recorded in checkpoint headers ("blaze" when owned by Blaze).
  std::string EngineName = "interp";
  /// Set by restore(); run() then skips initialisation and continues.
  bool Resumed = false;

private:
  struct ProcState {
    const LirUnit *L = nullptr;
    const UnitInstance *Inst = nullptr;
    std::vector<RtValue> Frame;
    std::vector<RtValue> Memory;
    int32_t Pc = 0;
    /// Set at the first suspension; afterwards classified processes
    /// resume from the LIR's constant resumption point.
    bool Started = false;
    enum class St : uint8_t { Ready, Waiting, Halted } State = St::Ready;
    std::vector<SignalId> Sensitivity;
    uint64_t WakeGen = 0;
    /// Native execution state: non-null when this instance is bound to
    /// generated code; Entry is the resumption token (0 = start).
    jit::ProcContext *Jit = nullptr;
    long long Entry = 0;
  };

  struct EntState {
    const LirUnit *L = nullptr;
    const UnitInstance *Inst = nullptr;
    std::vector<RtValue> Frame;
    std::vector<RtValue> RegPrev;
    std::vector<uint8_t> RegPrevValid;
    std::vector<RtValue> DelPrev;
  };

  /// Binds this run's process instances to the program's native code
  /// (no-op when the JIT is off); called at the end of build().
  void buildJit();
  /// Copies a natively-executing process's lane state back into the
  /// interpreter-visible Frame/Memory/Pc before checkpointing.
  void syncFromNative(ProcState &PS);
  /// Loads restored Frame/Memory/Pc into the native lane state; false
  /// when the resumption pc has no native entry (the caller then deopts
  /// the instance).
  bool syncToNative(ProcState &PS);
  /// Runs a natively-bound process; mirrors runProcess's wait/halt
  /// bookkeeping exactly.
  void runProcessNative(uint32_t PI);

  /// A probe of a whole word-lane signal reads the stored value in place
  /// (a word copy), the rule Blaze's direct native probes follow; every
  /// other probe resolves through SignalTable::read().
  void execPrb(const LirOp &Op, RtValue *F) {
    const RtValue &Sig = F[Op.A];
    SignalId Canon = Sig.isWholeSignal() ? Signals.wordCanon(Sig.sigId())
                                         : InvalidSignal;
    if (Canon != InvalidSignal)
      F[Op.Dst] = Signals.storedValue(Canon);
    else
      F[Op.Dst] = Signals.read(Sig.sigRef());
  }

  /// A drive of a whole word-lane signal with an integer value files a
  /// 24-byte word entry; every other drive files a general SigUpdate.
  void execDrv(const LirOp &Op, const RtValue *F, const void *Tag) {
    if (Op.Dd >= 0 && !F[Op.Dd].isTruthy())
      return;
    Time T = driveTarget(Now, F[Op.Cc].timeValue());
    const RtValue &Sig = F[Op.A], &Val = F[Op.B];
    SignalId Canon = Val.isInt() && Sig.isWholeSignal()
                         ? Signals.wordCanon(Sig.sigId())
                         : InvalidSignal;
    if (Canon != InvalidSignal) {
      assert(Val.intValue().width() ==
                 Signals.storedValue(Canon).intValue().width() &&
             "drive value width differs from the signal's");
      Sched.scheduleWord(T, Canon, Val.intValue().zextToU64(),
                         driverId(Tag, Op.Origin));
    } else {
      Sched.scheduleUpdate(T, {Sig.sigRef(), Val, driverId(Tag, Op.Origin)});
    }
    Sched.countScheduled(1);
  }

  /// Walks the decoded triggers of one `reg` op, updates the instance's
  /// previous samples, and schedules the value of every firing trigger.
  void execReg(EntState &ES, const LirOp &Op, bool Initial);

  RtValue callFunction(Unit *F, std::vector<RtValue> &Args);
  RtValue callOp(const LirOp &Op, const RtValue *F, const int32_t *Pool);

  std::vector<ProcState> Procs;
  std::vector<EntState> Ents;

  /// Depth-indexed pools of function frames and call-argument buffers,
  /// reused across calls so steady-state function execution does not
  /// allocate.
  struct FnFrame {
    std::vector<RtValue> Frame;
    std::vector<RtValue> Memory;
  };
  DepthPool<FnFrame> FnPool;
  DepthPool<std::vector<RtValue>> ArgPool;

  /// This run's native bindings over the program's compiled code, plus
  /// its private copy of the JIT statistics (compile-time numbers from
  /// the program, bind counts from this run; empty without native code).
  std::vector<std::unique_ptr<jit::ProcContext>> JitCtxs;
  jit::JitStats JitSt;
};

} // namespace llhd

#endif // LLHD_SIM_LIRENGINE_H
