//===- sim/Lir.h - Lowered runtime IR -----------------------------*- C++ -*-===//
//
// The lowered runtime IR shared by both execution engines. A unit is
// lowered exactly once at elaboration into a flat instruction array in
// block order: operands become dense frame-slot indices (the unit's value
// numbering, Unit::numberValues), constants are hoisted into a preload
// table, phis become staged edge-copy trampolines, jump targets are
// absolute instruction indices, and every `wait` carries its resumption
// point. Register triggers are fully decoded (mode + value/trigger/
// delay/condition slots + dense previous-sample index), so no engine ever
// re-derives `reg` operand layout.
//
// On top of the lowering sits a process classifier:
//   PureComb   — a straight-line probe/compute/drive sweep ending in one
//                static wait that resumes at a fixed point; executes with
//                no control-flow dispatch at all.
//   ClockedReg — one static wait (the shape always_ff lowers to): the
//                resumption point is a compile-time constant and the
//                sensitivity set never changes, so engines skip all
//                per-activation resumption bookkeeping and re-registration.
//   General    — everything else (multiple waits, timeouts, or dynamic
//                sensitivity); the engines' full paths apply.
//
// The interpreter and Blaze execute this form directly (sim/LirEngine.h),
// and Blaze's JIT plans its native code from it (jit/Codegen.h). The
// only opcode-level walk over ir::Instruction lives in lowerUnit below —
// engine semantics are shared by construction.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_LIR_H
#define LLHD_SIM_LIR_H

#include "ir/Instruction.h"
#include "ir/Unit.h"
#include "sim/RtOps.h"
#include "sim/RtValue.h"

#include <map>
#include <string>
#include <vector>

namespace llhd {

struct UnitInstance;

/// The runaway guard of every engine, interpreted and native: one
/// process activation or function call may take this many backward
/// jumps (a jump to its own or an earlier pc); the last one halts the
/// process, or returns from the function with the default value of its
/// result type (zero for integers; defaultValue in sim/RtOps.h), so the
/// caller always consumes a well-typed value. Each call counts its own
/// jumps, apart from its caller's. Counting jumps rather than ops gives
/// every engine the same limit whatever its dispatch granularity.
constexpr uint64_t MaxBackwardJumps = 100000000ull;

/// The lowered opcode set. Pure data-flow computation is one opcode
/// carrying the ir::Opcode for RtOps dispatch; everything else is an
/// execution-shaped instruction.
enum class LirOpc : uint8_t {
  Pure,    ///< frame[Dst] = IrOp(frame[operands...]); see execPure.
  Prb,     ///< frame[Dst] = signal read of frame[A].
  Drv,     ///< drive frame[A] with frame[B] after frame[C] if frame[Dd].
  Jmp,     ///< pc = Jmp0.
  CondJmp, ///< pc = frame[A] ? Jmp1 : Jmp0.
  Copy,    ///< frame[Dst] = frame[A] (phi edge copies).
  Wait,    ///< suspend; resume at Jmp0; timeout frame[A]; observe operands.
  Halt,    ///< terminate the process.
  Ret,     ///< return frame[A] (A = -1: void).
  Call,    ///< frame[Dst] = call Callee(frame[operands...]).
  Var,     ///< memory cell from frame[A]; pointer into frame[Dst].
  Ld,      ///< frame[Dst] = memory[frame[A]].
  St,      ///< memory[frame[A]] = frame[B].
  Reg,     ///< register rules on target frame[A]; triggers in TriggerPool.
  Del,     ///< transport delay: frame[A] <- sig frame[B] after frame[C].
};

const char *lirOpcName(LirOpc C);

/// One fully decoded `reg` trigger: all indices are frame slots.
struct LirTrigger {
  RegMode Mode;
  int32_t Value;      ///< Slot of the value stored when firing.
  int32_t Trig;       ///< Slot of the observed trigger.
  int32_t Delay = -1; ///< Slot of the optional store delay, -1 absent.
  int32_t Cond = -1;  ///< Slot of the optional gate condition, -1 absent.
};

/// One lowered instruction. Fixed operands live in A/B/Cc/Dd; variadic
/// operand lists (Pure, Wait observes, Call arguments) are spans of the
/// unit's OperandPool.
struct LirOp {
  LirOpc C;
  Opcode IrOp = Opcode::Halt; ///< Pure: the data-flow opcode.
  int32_t Dst = -1;
  int32_t A = -1, B = -1, Cc = -1, Dd = -1;
  /// Pure: the insf/extf/inss/exts immediate. Reg/Del: the base index
  /// into the instance's previous-sample state arrays.
  uint32_t Imm = 0;
  /// Pure: the result width of zext/sext/trunc and integer or logic exts
  /// (pureResultWidth in sim/RtOps.h), so evaluation never reads Origin.
  uint32_t Width = 0;
  int32_t Jmp0 = -1, Jmp1 = -1;
  uint32_t OpsBase = 0, OpsCount = 0;   ///< Span of LirUnit::OperandPool.
  uint32_t TrigBase = 0, TrigCount = 0; ///< Reg: span of TriggerPool.
  Unit *Callee = nullptr;               ///< Call.
  /// Originating IR instruction: driver identity and diagnostics only —
  /// never dereferenced on the hot path.
  const Instruction *Origin = nullptr;
};

/// Structural process classification (see file header).
enum class ProcClass : uint8_t { PureComb, ClockedReg, General };

const char *procClassName(ProcClass C);

/// One unit lowered for execution, shared across its instances.
struct LirUnit {
  Unit *U = nullptr;
  std::vector<LirOp> Ops;
  std::vector<int32_t> OperandPool;
  std::vector<LirTrigger> TriggerPool;
  /// Frame size: slots [0, NumValues) are the unit's dense value
  /// numbering; [NumValues, NumSlots) are phi-staging scratch.
  uint32_t NumSlots = 0;
  uint32_t NumValues = 0;
  /// Constant preloads into fresh frames: (slot, value).
  std::vector<std::pair<uint32_t, RtValue>> ConstSlots;
  /// Dense previous-sample state sizes (per instance).
  uint32_t NumRegPrev = 0, NumDelPrev = 0;

  /// Process classification results (General for entities/functions).
  ProcClass Class = ProcClass::General;
  /// Pc of the unique wait for PureComb/ClockedReg, else -1.
  int32_t WaitPc = -1;
  /// The unique wait's resumption pc for PureComb/ClockedReg, else -1.
  int32_t ResumePc = -1;
  /// True when every wait is free of timeouts and observes only slots no
  /// instruction ever writes: once registered, the process's sensitivity
  /// never changes, so engines may skip re-registration and wake-
  /// generation churn after the first suspension.
  bool StableWait = false;

  /// The lowerings of the defined functions this unit's Call ops name,
  /// (callee, lowering) in first-call order. Filled by
  /// LirCache::linkCallees, which LirProgram::build runs after its
  /// call-graph fixpoint; empty for a unit lowered on its own.
  std::vector<std::pair<const Unit *, const LirUnit *>> Callees;

  /// The linked lowering of the function \p Fn, or null.
  const LirUnit *callee(const Unit *Fn) const {
    for (const auto &[U, L] : Callees)
      if (U == Fn)
        return L;
    return nullptr;
  }

  /// Deterministic textual form for golden tests and --dump-lir.
  std::string dump() const;

  /// Sets \p Frame up for a fresh activation of instance \p UI: every
  /// slot empty but the constant preloads and the instance's signal
  /// bindings.
  void preload(const UnitInstance &UI, std::vector<RtValue> &Frame) const;
};

/// The runtime identity of the driver \p I of the instance tagged \p Tag,
/// one formula for every engine (checkpoints remap it to a stable id).
inline uint64_t driverId(const void *Tag, const Instruction *I) {
  return (reinterpret_cast<uintptr_t>(Tag) << 20) ^
         reinterpret_cast<uintptr_t>(I);
}

/// Lowers \p U into LIR. Runs the only IR-opcode walk shared by the
/// engines; includes jump-chain threading and fall-through elision.
LirUnit lowerUnit(Unit &U);

/// Shared `Pure` op execution, the pure op of every engine: evaluates
/// \p Op over frame \p F (operand slots in \p Pool, the unit's
/// OperandPool) into F[Op.Dst]. Two-state operands of at most 64 bits
/// take the word path (evalIntFast), which writes the result word into
/// the slot in place; everything else takes evalPureWide.
inline void execPure(const LirOp &Op, const int32_t *Pool, RtValue *F) {
  const int32_t *Idx = Pool + Op.OpsBase;
  if (Op.OpsCount - 1u < 2u &&
      evalIntFast(Op.IrOp, F[Idx[0]], Op.OpsCount == 2 ? &F[Idx[1]] : nullptr,
                  Op.Imm, Op.Width, F[Op.Dst]))
    return;
  F[Op.Dst] = evalPureWide(Op.IrOp, F, Idx, Op.OpsCount, Op.Imm, Op.Width,
                           Op.Origin);
}

/// Per-module lowering cache: every unit is lowered once and shared by
/// all instances (and both LIR-executing engines of one simulation).
///
/// Build-time callers populate it through get(); run-time callers use
/// the const lookup() so a fully-built cache (LirProgram) is shareable
/// across concurrent batch instances without synchronisation.
class LirCache {
public:
  const LirUnit &get(Unit *U) {
    auto It = Units.find(U);
    if (It == Units.end())
      It = Units.emplace(U, lowerUnit(*U)).first;
    return It->second;
  }

  /// Read-only lookup; null when \p U was never lowered into this cache.
  const LirUnit *lookup(const Unit *U) const {
    auto It = Units.find(const_cast<Unit *>(U));
    return It == Units.end() ? nullptr : &It->second;
  }

  /// Links every cached unit's Call ops to their callees' cached
  /// lowerings (LirUnit::Callees). Build-time only, like get(); callees
  /// missing from the cache stay unlinked.
  void linkCallees() {
    for (auto &[U, L] : Units) {
      for (const LirOp &Op : L.Ops) {
        if (Op.C != LirOpc::Call || L.callee(Op.Callee))
          continue;
        if (const LirUnit *CL = lookup(Op.Callee))
          L.Callees.push_back({Op.Callee, CL});
      }
    }
  }

  /// Visits every cached lowering (deterministic unit-pointer order).
  /// The LirUnit references are stable for the cache's lifetime.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const auto &KV : Units)
      F(KV.first, KV.second);
  }

private:
  std::map<Unit *, LirUnit> Units;
};

} // namespace llhd

#endif // LLHD_SIM_LIR_H
