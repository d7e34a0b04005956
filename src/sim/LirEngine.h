//===- sim/LirEngine.h - Direct LIR execution core --------------*- C++ -*-===//
//
// The one LIR executor behind the reference interpreter (LLHD-Sim) and
// the Blaze engine, and the event-driven main loop that drives it:
// run() pops time slots, applies signal updates, computes the wake set
// and runs the woken units. Per-instance frames are dense slot arrays, a
// word file and an RtValue file (sim/Lir.h), preloaded with constants
// and signal bindings. Processes and functions run one pc-dispatch loop
// over LirOps (exec), entities a single front-to-back sweep
// (evalEntity); functions execute from pooled frames. A process whose
// sensitivity is stable (LirUnit::StableWait) registers it once, at its
// first suspension, and skips the wake-generation bump and the
// re-registration on every later activation.
//
// Wake sets are computed through dense reverse indices: entity watchers
// come from Design::EntityWatchers (built at elaboration), and dynamic
// process sensitivity is registered into a WakeIndex each time a process
// suspends. One time slot therefore costs O(updates + changed signals +
// woken units), independent of the total process count.
//
// The two engines running this core (through the one InterpSim facade)
// differ only in what they feed it: Interp lowers the caller's module
// as-is; Blaze clones and runs the optimisation pipeline first and
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

/// Direct executor of the lowered runtime IR and its event loop.
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

  /// Runs the event loop to completion. After restore(), the loop
  /// continues from the checkpointed instant instead of initialising.
  SimStats run();

  //===------------------------------------------------------------------===//
  // Checkpoint / restore (sim/Checkpoint.h)
  //===------------------------------------------------------------------===//

  /// Serializes the full runtime state. Native and interpreted processes
  /// share one frame layout, so the image is engine-neutral (restorable
  /// with or without the JIT).
  void checkpoint(std::vector<uint8_t> &Out);

  /// Restores a checkpoint() image into this freshly-built engine.
  /// Natively-bound processes resume from the restored frames; an
  /// instance whose resumption point has no native entry (e.g. the image
  /// came from a differently-JITted run) deopts to interpretation by
  /// itself. Returns false and sets \p Err on a version/module mismatch
  /// or a corrupt image.
  bool restore(const std::vector<uint8_t> &In, std::string &Err);

  /// The fixed var cells of process \p PI plus its dynamic memory cells.
  size_t procCells(uint32_t PI) const {
    return Procs[PI].L->NumCells + Procs[PI].Memory.size();
  }

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
  /// memory of vars whose pointers escape. A natively bound process runs
  /// its generated code over the same word file.
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
    /// Where the next activation starts: 0, then the continuation of the
    /// wait it last suspended at (kept by native activations too).
    int32_t Pc = 0;
    /// Set at the first suspension; a StableWait process registers its
    /// sensitivity only then.
    bool Started = false;
    enum class St : uint8_t { Ready, Waiting, Halted } State = St::Ready;
    std::vector<SignalId> Sensitivity;
    uint64_t WakeGen = 0;
    /// Native execution state: non-null when this instance is bound to
    /// generated code; Entry is the resumption token of Pc (0 = start).
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
  /// Sets a restored native process's resumption token from its Pc;
  /// false when the pc has no native entry (the caller then deopts the
  /// instance).
  bool resumeNative(ProcState &PS);
  /// Runs process \p PI from where it suspended, interpreted or native.
  void runProcess(uint32_t PI);
  /// Runs a natively-bound process; suspends through suspend() like an
  /// interpreted one.
  void runProcessNative(uint32_t PI);
  /// Suspends process \p PI at a wait. Unless its sensitivity is stable
  /// and already registered, \p FillSens refills PS.Sensitivity with the
  /// canonical ids it observes and the wake generation moves on,
  /// invalidating earlier timers; a non-null \p Timeout schedules a wake.
  template <typename FillFn>
  void suspend(uint32_t PI, FillFn &&FillSens, const Time *Timeout);
  /// The dispatch loop of processes and functions: runs the ops of \p L
  /// over the frame (W, F) from \p Pc and returns the pc of the op that
  /// stopped it (a wait, halt or ret, or an op illegal in the unit kind;
  /// signal ops are illegal in a function), or -1 when the runaway guard
  /// trips. \p WS, \p Tag and \p Mem are the frame's word-signal table,
  /// driver tag and dynamic memory.
  template <bool InFn>
  int32_t exec(const LirUnit &L, int32_t Pc, uint64_t *W, RtValue *F,
               const SignalId *WS, const void *Tag, std::vector<RtValue> &Mem);
  /// Runs entity \p EI's sweep; \p Initial at initialisation.
  void evalEntity(uint32_t EI, bool Initial);

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
  /// other probe resolves through SignalTable::read(). A word array
  /// takes the element words of the value, read in place when the
  /// reference resolves to a whole signal.
  void execPrb(const LirUnit &L, const LirOp &Op, uint64_t *W, RtValue *F,
               const SignalId *WS) {
    SignalId Canon = wordSignal(WS, F, Op.A);
    const LirSlot &D = L.Slots[Op.Dst];
    if (Canon != InvalidSignal) {
      F[Op.Dst] = Signals.storedValue(Canon);
    } else if (D.Len) {
      SigRef R = Signals.resolve(F[Op.A].sigRef());
      if (R.wholeSignal())
        unpackWords(Signals.storedValue(R.Sig), W + D.Base, D.Len);
      else
        unpackWords(Signals.read(R), W + D.Base, D.Len);
    } else {
      F[Op.Dst] = Signals.read(F[Op.A].sigRef());
    }
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
      Sched.scheduleUpdate(T, Sig.sigRef(), L.boxed(Op.B, W, F),
                           driverId(Tag, Op.Origin));
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
