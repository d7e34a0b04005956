//===- sim/LirEngine.h - Direct LIR execution core --------------*- C++ -*-===//
//
// The shared LIR execution core behind the reference interpreter
// (LLHD-Sim) and the Blaze engine: per-instance frames are dense slot
// arrays, a word file and an RtValue file (sim/Lir.h), preloaded with
// constants and signal bindings; processes run a flat pc-dispatch loop
// over LirOps, entities run a single front-to-back sweep, and functions
// execute from pooled frames. The classifier's fast
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
  /// The fixed var cells of process \p PI plus its dynamic memory cells.
  size_t procCells(uint32_t PI) const {
    return Procs[PI].L->NumCells + Procs[PI].Memory.size();
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
  /// One activation frame: the word file and the RtValue file, indexed
  /// by slot and then by fixed var cell (sim/Lir.h), plus the dynamic
  /// memory of vars whose pointers escape.
  struct ProcState {
    const LirUnit *L = nullptr;
    const UnitInstance *Inst = nullptr;
    std::vector<uint64_t> Words;
    std::vector<RtValue> Frame;
    /// Per slot: the word-lane storage root of the whole signal the slot
    /// binds, resolved once at build(); InvalidSignal for every other
    /// slot (see wordSignals()).
    std::vector<SignalId> WordSigs;
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
    std::vector<uint64_t> Words;
    std::vector<RtValue> Frame;
    std::vector<SignalId> WordSigs; ///< As ProcState::WordSigs.
    std::vector<RtValue> RegPrev;
    std::vector<uint8_t> RegPrevValid;
    std::vector<RtValue> DelPrev;
  };

  /// Binds this run's process instances to the program's native code
  /// (no-op when the JIT is off); called at the end of build().
  void buildJit();
  /// Copies a natively-executing process's lane state back into the
  /// interpreter-visible files (words, RtValues, var cells) and Pc
  /// before checkpointing.
  void syncFromNative(ProcState &PS);
  /// Loads the restored files and Pc into the native lane state; false
  /// when the resumption pc has no native entry (the caller then deopts
  /// the instance).
  bool syncToNative(ProcState &PS);
  /// Runs a natively-bound process; mirrors runProcess's wait/halt
  /// bookkeeping exactly.
  void runProcessNative(uint32_t PI);

  /// The word-lane storage root of the signal \p Sig refers to, when it
  /// is a whole word-lane signal; InvalidSignal otherwise.
  SignalId wordSignal(const RtValue &Sig) const {
    return Sig.isWholeSignal() ? Signals.wordCanon(Sig.sigId())
                               : InvalidSignal;
  }
  /// wordSignal() of every slot of the preloaded frame \p Frame: signal
  /// bindings never change, so each probe and drive of a bound signal
  /// reads its root from here instead of resolving it again.
  std::vector<SignalId> wordSignals(const LirUnit &L,
                                    const std::vector<RtValue> &Frame) const {
    std::vector<SignalId> WS(L.NumSlots, InvalidSignal);
    for (uint32_t S = 0; S != L.NumSlots; ++S)
      WS[S] = wordSignal(Frame[S]);
    return WS;
  }
  /// The word-lane root of signal slot \p S: the cached binding's, or,
  /// for a signal computed at run time, the current value's.
  SignalId wordSignal(const SignalId *WS, const RtValue *F, int32_t S) const {
    SignalId C = WS[S];
    return C != InvalidSignal ? C : wordSignal(F[S]);
  }

  /// A probe of a whole word-lane signal reads the stored value in place
  /// (a word copy), the rule Blaze's direct native probes follow; every
  /// other probe resolves through SignalTable::read().
  void execPrb(const LirOp &Op, RtValue *F, const SignalId *WS) {
    SignalId Canon = wordSignal(WS, F, Op.A);
    if (Canon != InvalidSignal)
      F[Op.Dst] = Signals.storedValue(Canon);
    else
      F[Op.Dst] = Signals.read(F[Op.A].sigRef());
  }
  void execPrbW(const LirOp &Op, uint64_t *W, const RtValue *F,
                const SignalId *WS) {
    SignalId Canon = wordSignal(WS, F, Op.A);
    W[Op.Dst] = Canon != InvalidSignal
                    ? Signals.storedValue(Canon).intValue().zextToU64()
                    : Signals.read(F[Op.A].sigRef()).intValue().zextToU64();
  }

  /// A drive of a whole word-lane signal with an integer value files a
  /// 24-byte word entry; every other drive files a general SigUpdate.
  /// DrvW drives the word W[B]; Drv drives the boxed F[B].
  void execDrv(const LirUnit &L, const LirOp &Op, uint64_t *W, RtValue *F,
               const SignalId *WS, const void *Tag) {
    if (Op.Dd >= 0 && !L.truthy(Op.Dd, W, F))
      return;
    Time T = driveTarget(Now, F[Op.Cc].timeValue());
    const RtValue &Sig = F[Op.A];
    SignalId Canon =
        Op.C == LirOpc::DrvW ? wordSignal(WS, F, Op.A) : InvalidSignal;
    if (Canon != InvalidSignal) {
      assert(Op.Width == Signals.storedValue(Canon).intValue().width() &&
             "drive value width differs from the signal's");
      Sched.scheduleWord(T, Canon, W[Op.B], driverId(Tag, Op.Origin));
    } else {
      Sched.scheduleUpdate(
          T, {Sig.sigRef(), L.boxed(Op.B, W, F), driverId(Tag, Op.Origin)});
    }
    Sched.countScheduled(1);
  }

  /// Walks the decoded triggers of one `reg` op, updates the instance's
  /// previous samples, and schedules the value of every firing trigger.
  void execReg(EntState &ES, const LirOp &Op, bool Initial);

  RtValue callFunction(const LirOp &Op, std::vector<RtValue> &Args);
  /// Runs the Call op \p Op of unit \p L over the frame (W, F): an
  /// assert or finish acts at once; every other call gathers its
  /// arguments, boxed, into a pooled buffer.
  void callOp(const LirUnit &L, const LirOp &Op, uint64_t *W, RtValue *F);
  /// Var/Ld/St over dynamic memory \p Mem (the M forms).
  static void execMem(const LirUnit &L, const LirOp &Op, uint64_t *W,
                      RtValue *F, std::vector<RtValue> &Mem);

  std::vector<ProcState> Procs;
  std::vector<EntState> Ents;

  /// Depth-indexed pools of function frames and call-argument buffers,
  /// reused across calls so steady-state function execution does not
  /// allocate.
  struct FnFrame {
    std::vector<uint64_t> Words;
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
