//===- sim/Lir.h - Lowered runtime IR -----------------------------*- C++ -*-===//
//
// The lowered runtime IR shared by both execution engines. A unit is
// lowered exactly once at elaboration into a flat instruction array in
// block order: operands become dense frame-slot indices (the unit's value
// numbering, Unit::numberValues), constants are hoisted into preload
// tables, phis become staged edge-copy trampolines, jump targets are
// absolute instruction indices, and every `wait` carries its resumption
// point. Register triggers are fully decoded (mode + value/trigger/
// delay/condition slots + dense previous-sample index), so no engine ever
// re-derives `reg` operand layout.
//
// Typed slots. Lowering records every slot's static IR type
// (LirUnit::Slots). A slot whose type is a two-state int or enum of at
// most 64 bits is a word slot: its value lives in the frame's word file
// (uint64_t, the zero-extended value) at the slot's own index. A slot
// whose type is a non-empty flat array of such ints (a word array) owns
// one word per element, consecutive, past the slots and cells
// (LirSlot::Base; NumWords is the word file's size).
// Every other slot lives in the RtValue file. Both files are indexed by
// slot number, so an operand is the same index whichever file holds it,
// and the generic ops box a word or word-array operand into the RtValue
// file's entry for that slot in place (LirUnit::boxed/store), so
// entities, `reg`/`del` and checkpoint images see the same RtValues
// whichever file holds a slot. Ops whose operands and result all live in
// the word file get word opcodes (PrbW, DrvW, CondJmpW, CopyW, VarW, LdW,
// StW, one opcode per pure operation: AddW, XorW, UltW, ..., and ArrW
// for the array operations over word arrays) that never test a kind
// tag; the generic opcodes box and unbox word operands. The word file is
// also the frame of Blaze's native code (jit/Codegen.h): one layout,
// decided here, serves both tiers.
//
// Var cells. A `var` whose pointer is used only as the address of `ld`
// and `st` owns one fixed cell, appended to both files after the slots
// (index NumSlots + k for the k-th such var in pc order; a word-array
// cell's words follow like a word array slot's): executing the
// var re-initialises the cell, and ld/st address it directly (LirOp::Imm).
// No op can tell a reused cell from a fresh one, since the pointer is
// never copied. Only a var whose pointer escapes (a phi, a call
// argument, a stored value) allocates a cell per execution (VarM/LdM/
// StM over the frame's dynamic memory).
//
// On top of the lowering sits one process classification, StableWait: a
// process with a single timeout-free wait whose observed signals no
// instruction writes (the shape always_ff and assign lower to) observes
// the same signals at every suspension, so the engine registers its
// sensitivity once and skips the per-activation wake-generation bump and
// re-registration.
//
// The interpreter and Blaze execute this form directly (sim/LirEngine.h),
// and Blaze's JIT plans its native code from it (jit/Codegen.h), reading
// the slot layout from here. The only opcode-level walk over
// ir::Instruction lives in lowerUnit below — engine semantics are shared
// by construction.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_LIR_H
#define LLHD_SIM_LIR_H

#include "ir/Instruction.h"
#include "ir/Type.h"
#include "ir/Unit.h"
#include "sim/RtOps.h"
#include "sim/RtValue.h"

#include <algorithm>
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

/// The lowered opcode set. Generic pure data-flow computation is one
/// opcode carrying the ir::Opcode for RtOps dispatch; a pure op over word
/// slots is decoded into its own opcode, one per evalWord() operation
/// (LLHD_WORD_OPS in sim/RtOps.h); everything else is an execution-shaped
/// instruction. F is the frame's RtValue file, W its word file (see the
/// file header); a generic op reads a word slot by boxing it and writes
/// one by unboxing its result.
enum class LirOpc : uint8_t {
  Pure,     ///< F[Dst] = IrOp(F[operands...]); see execPure.
  /// OpW: W[Dst] = evalWord(Op, W[A], W[B]) (B = A when unary); execWord.
#define LLHD_LIR_WORD_OPC(Op) Op##W,
  LLHD_WORD_OPS(LLHD_LIR_WORD_OPC)
#undef LLHD_LIR_WORD_OPC
  Prb,      ///< F[Dst] = signal read of F[A].
  PrbW,     ///< W[Dst] = signal read of F[A].
  Drv,      ///< drive F[A] with F[B] after F[Cc] if frame[Dd].
  DrvW,     ///< drive F[A] with W[B] (Width bits) after F[Cc] if frame[Dd].
  Jmp,      ///< pc = Jmp0.
  CondJmp,  ///< pc = F[A] ? Jmp1 : Jmp0.
  CondJmpW, ///< pc = W[A] ? Jmp1 : Jmp0.
  Copy,     ///< F[Dst] = F[A] (phi edge copies).
  CopyW,    ///< W[Dst] = W[A].
  ArrW,     ///< IrOp over word arrays (array/extf/exts/insf/inss/mux).
  Wait,     ///< suspend; resume at Jmp0; timeout F[A]; observe operands.
  Halt,     ///< terminate the process.
  Ret,      ///< return frame[A] (A = -1: void).
  Call,     ///< frame[Dst] = call Callee(frame[operands...]).
  Var,      ///< fixed cell F[Imm] = F[A]; Dst names the pointer.
  VarW,     ///< fixed cell W[Imm] = W[A]; Dst names the pointer.
  VarM,     ///< new memory cell from frame[A]; pointer into F[Dst].
  Ld,       ///< F[Dst] = fixed cell F[Imm]; A names the pointer.
  LdW,      ///< W[Dst] = fixed cell W[Imm]; A names the pointer.
  LdM,      ///< frame[Dst] = memory[F[A]].
  St,       ///< fixed cell F[Imm] = F[B]; A names the pointer.
  StW,      ///< fixed cell W[Imm] = W[B]; A names the pointer.
  StM,      ///< memory[F[A]] = frame[B].
  Reg,      ///< register rules on target F[A]; triggers in TriggerPool.
  Del,      ///< transport delay: F[A] <- sig F[B] after F[Cc].
};

/// The opcode's name in LirUnit::dump(); every word pure op prints as
/// "purew" followed by its IR opcode.
const char *lirOpcName(LirOpc C);

/// Case labels for every word pure opcode (AddW, XorW, ...).
#define LLHD_LIR_WORD_CASE(Op) case LirOpc::Op##W:
#define LLHD_LIR_WORD_CASES LLHD_WORD_OPS(LLHD_LIR_WORD_CASE)

/// The word pure opcode of \p Op, an operation wordPure() accepts.
constexpr LirOpc wordOpc(Opcode Op) {
  switch (Op) {
#define LLHD_LIR_WORD_OF(O)                                                   \
  case Opcode::O:                                                             \
    return LirOpc::O##W;
    LLHD_WORD_OPS(LLHD_LIR_WORD_OF)
#undef LLHD_LIR_WORD_OF
  default:
    return LirOpc::Pure;
  }
}

/// The IR-level operation \p C executes, whatever file it runs over:
/// every word pure opcode and ArrW is Pure, PrbW is Prb, VarW and VarM
/// are Var, and so on. Passes that care about what an op does, not where
/// its operands live (the JIT planner, the classifier), switch on this.
constexpr LirOpc baseOpc(LirOpc C) {
  switch (C) {
  LLHD_LIR_WORD_CASES
  case LirOpc::ArrW:     return LirOpc::Pure;
  case LirOpc::PrbW:     return LirOpc::Prb;
  case LirOpc::DrvW:     return LirOpc::Drv;
  case LirOpc::CondJmpW: return LirOpc::CondJmp;
  case LirOpc::CopyW:    return LirOpc::Copy;
  case LirOpc::VarW:
  case LirOpc::VarM:     return LirOpc::Var;
  case LirOpc::LdW:
  case LirOpc::LdM:      return LirOpc::Ld;
  case LirOpc::StW:
  case LirOpc::StM:      return LirOpc::St;
  default:               return C;
  }
}

/// One fully decoded `reg` trigger: all indices are frame slots.
struct LirTrigger {
  RegMode Mode;
  int32_t Value;      ///< Slot of the value stored when firing.
  int32_t Trig;       ///< Slot of the observed trigger.
  int32_t Delay = -1; ///< Slot of the optional store delay, -1 absent.
  int32_t Cond = -1;  ///< Slot of the optional gate condition, -1 absent.
};

/// One lowered instruction. Fixed operands live in A/B/Cc/Dd; variadic
/// operand lists (Pure, ArrW, Wait observes, Call arguments) are spans
/// of the unit's OperandPool. Every operand is a slot number, which
/// indexes whichever file holds the slot (LirSlot::Base for a word
/// array).
struct LirOp {
  LirOpc C;
  /// Pure and the word pure ops: the data-flow opcode.
  Opcode IrOp = Opcode::Halt;
  /// Word pure ops: the widths of operands A and B.
  uint8_t WidthA = 0, WidthB = 0;
  /// Call: what the callee is when it is declared, not defined.
  IntrinsicKind Intr = IntrinsicKind::None;
  int32_t Dst = -1;
  int32_t A = -1, B = -1, Cc = -1, Dd = -1;
  /// Pure ops: the insf/extf/inss/exts immediate. Reg/Del: the base
  /// index into the instance's previous-sample state arrays. Var/Ld/St
  /// and their W forms: the fixed cell's file index.
  uint32_t Imm = 0;
  /// Pure: the result width of zext/sext/trunc and integer or logic exts
  /// (pureResultWidth in sim/RtOps.h), so evaluation never reads Origin.
  /// Word pure ops: the result width. DrvW: the value's width.
  uint32_t Width = 0;
  int32_t Jmp0 = -1, Jmp1 = -1;
  uint32_t OpsBase = 0, OpsCount = 0;   ///< Span of LirUnit::OperandPool.
  uint32_t TrigBase = 0, TrigCount = 0; ///< Reg: span of TriggerPool.
  Unit *Callee = nullptr;               ///< Call.
  /// Originating IR instruction: driver identity and diagnostics only —
  /// never dereferenced on the hot path.
  const Instruction *Origin = nullptr;
};

/// True for the types the word file holds: two-state ints and enums of
/// at most 64 bits.
inline bool isWordType(const Type *T) {
  return T && (T->isInt() || T->isEnum()) && T->bitWidth() <= 64;
}

/// Unpacks the array \p V into the \p N words at \p W. Anything but an
/// aggregate (a never-written slot) leaves the words alone.
inline void unpackWords(const RtValue &V, uint64_t *W, uint32_t N) {
  if (!V.isAggregate())
    return;
  const std::vector<RtValue> &Es = V.elements();
  for (uint32_t I = 0; I != N && I != Es.size(); ++I)
    if (Es[I].isInt())
      W[I] = Es[I].intValue().zextToU64();
}

/// Packs the \p N words at \p W into \p V as an array of \p Width-bit
/// ints, in place when \p V already is an array of N elements.
inline void packWords(RtValue &V, const uint64_t *W, uint32_t N,
                      unsigned Width) {
  if (V.kind() != RtValue::Kind::Array || V.elements().size() != N)
    V = RtValue::makeArray(std::vector<RtValue>(N));
  std::vector<RtValue> &Es = V.elements();
  for (uint32_t I = 0; I != N; ++I)
    Es[I].setWord(Width, W[I]);
}

/// The static layout of one frame slot or var cell.
struct LirSlot {
  /// The slot's IR type; null when nothing in the unit gives it one.
  Type *Ty = nullptr;
  /// A word slot: Ty is a two-state int or enum of at most 64 bits.
  bool Word = false;
  /// Word slots: the integer's width; word arrays: the element width.
  uint8_t Width = 0;
  /// The slot's words, W[Base, Base + Len): a word slot's own index and
  /// 1, a word array's element words (Ty is a non-empty flat array of
  /// word-typed elements), Len 0 for a slot of the RtValue file.
  uint32_t Base = 0, Len = 0;
};

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
  /// Fixed var cells, one per non-escaping var op; they follow the slots
  /// in both files.
  uint32_t NumCells = 0;
  /// The layout of every slot, then of every fixed cell (its var's
  /// value type): NumSlots + NumCells entries.
  std::vector<LirSlot> Slots;
  /// The word file's size: one word per slot and cell, then the words
  /// of the word arrays.
  uint32_t NumWords = 0;
  /// Constant preloads into fresh frames: (slot, value), RtValue file.
  std::vector<std::pair<uint32_t, RtValue>> ConstSlots;
  /// Constant preloads of the word file: (word, zero-extended value).
  std::vector<std::pair<uint32_t, uint64_t>> ConstWords;
  /// True when some var's pointer escapes (VarM ops), so frames need
  /// dynamic memory.
  bool HasMemory = false;
  /// Dense previous-sample state sizes (per instance).
  uint32_t NumRegPrev = 0, NumDelPrev = 0;

  /// True for a process with one wait, free of timeouts and observing
  /// only slots no instruction ever writes: once registered, its
  /// sensitivity never changes, so the engine skips re-registration and
  /// wake-generation churn after the first suspension.
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

  /// The size of the RtValue file: the slots, then the fixed cells.
  uint32_t fileSize() const { return NumSlots + NumCells; }

  /// Deterministic textual form for golden tests and --dump-lir: word
  /// operands print as w[N], word arrays as w[First..Last], RtValue
  /// operands as [N].
  std::string dump() const;

  /// Sets the files \p Words and \p Frame up for a fresh activation of
  /// instance \p UI: every slot zero or empty but the constant preloads
  /// and the instance's signal bindings.
  void preload(const UnitInstance &UI, std::vector<uint64_t> &Words,
               std::vector<RtValue> &Frame) const;

  /// Slot \p S's value in the RtValue file; a word or word-array slot is
  /// boxed into F[S] first. The generic ops read such operands through
  /// this.
  const RtValue &boxed(int32_t S, const uint64_t *W, RtValue *F) const {
    const LirSlot &Sl = Slots[S];
    if (Sl.Word)
      F[S].setWord(Sl.Width, W[S]);
    else if (Sl.Len)
      packWords(F[S], W + Sl.Base, Sl.Len, Sl.Width);
    return F[S];
  }
  /// The boolean interpretation of slot \p S (an i1 condition).
  bool truthy(int32_t S, const uint64_t *W, const RtValue *F) const {
    return Slots[S].Word ? W[S] != 0 : F[S].isTruthy();
  }
  /// Copies slot or cell \p S into \p D, across files when they differ.
  void copy(int32_t D, int32_t S, uint64_t *W, RtValue *F) const {
    const LirSlot &Sd = Slots[D], &Ss = Slots[S];
    if (!Sd.Len)
      F[D] = boxed(S, W, F);
    else if (Sd.Len == Ss.Len && Sd.Word == Ss.Word)
      std::copy_n(W + Ss.Base, Sd.Len, W + Sd.Base);
    else
      store(D, boxed(S, W, F), W, F);
  }
  /// Stores \p V into slot \p S: a word slot keeps the integer's word, a
  /// word array its elements' words.
  void store(int32_t S, RtValue V, uint64_t *W, RtValue *F) const {
    const LirSlot &Sl = Slots[S];
    if (Sl.Word)
      W[S] = V.isInt() ? V.intValue().zextToU64() : 0;
    else if (Sl.Len)
      unpackWords(V, W + Sl.Base, Sl.Len);
    else
      F[S] = std::move(V);
  }
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

/// The generic `Pure` op of every engine: boxes its word operands,
/// evaluates \p Op over the RtValue file (evalIntFast where it applies,
/// else evalPureWide) and stores the result into its slot's file.
void execPure(const LirUnit &L, const LirOp &Op, uint64_t *W, RtValue *F);

/// The word pure op \p Op, whose opcode is IrOp's (LirOpc::IrOpW), over
/// the word file \p W: every operand and the result are word slots, and
/// the widths were decoded at lowering (wordPure in sim/RtOps.h). With a
/// constant IrOp, evalWord folds to the one operation, so a dispatch loop
/// that gives every word opcode its own case executes it with a single
/// indirect jump.
template <Opcode IrOp>
[[gnu::always_inline]] inline void execWord(const LirOp &Op, uint64_t *W) {
  W[Op.Dst] =
      evalWord(IrOp, W[Op.A], W[Op.B], Op.WidthA, Op.WidthB, Op.Imm, Op.Width);
}

/// The ArrW op \p Op of \p L over the word file \p W: IrOp (array
/// create, extf, exts, insf, inss or mux) over the words of its operand
/// slots, every one a word slot or a word array.
void execArrW(const LirUnit &L, const LirOp &Op, uint64_t *W);

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
        if (Op.C != LirOpc::Call || Op.Intr != IntrinsicKind::None ||
            L.callee(Op.Callee))
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
