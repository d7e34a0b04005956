//===- jit/Codegen.h - LIR to C++ translation -------------------*- C++ -*-===//
//
// Translates lowered process units (sim/Lir.h) into self-contained C++
// source for host compilation (jit/HostCompiler.h). A process that
// survives planning becomes one extern "C" function over the process's
// LIR word file (sim/Lir.h), the frame the interpreter runs it over:
// word slot S is s[S], a word array or word-array var cell occupies
// s[Base, Base + Len), and the constants are the file's preloads. The
// planner lays nothing out; it only checks that every op the process
// runs reads and writes the word file. Side effects — probes, drives,
// waits, intrinsic calls — go through the function-pointer table in
// jit/Runtime.h, so the generated translation unit needs no headers and
// no symbols from the engine.
//
// A call to a defined function is planned in function mode: the callee
// (reached through LirUnit::Callees) may take and return two-state
// integers of width <= 64 and run pure ops, var/ld/st, branches, `ret`,
// llhd.assert/llhd.finish and calls to other such functions. Each one
// the process reaches becomes a `static` C++ function emitted just
// before the process's own, over a local word file laid out by the
// callee's own lowering (with its own runaway-guard fuel when it can
// loop). Its intrinsic sites are numbered after the process's own in
// the process's Calls table, so the callbacks serve them unchanged. No
// callee frame lives across a `wait`: a native process's state is
// exactly its word file and its resumption entry.
//
// Planning is conservative: any op the emitter cannot prove two-state
// width <= 64 (wide ints, logic, structs, nested arrays, dynamic drive
// delays, recursive calls, non-scalar call arguments or results,
// signal-producing computation, pointer escapes) rejects that process
// with a recorded reason, and the engine keeps interpreting it.
// Correctness never depends on planning succeeding; the emitted
// expressions use jit/Prelude.h's helpers, the same code RtOps.cpp's
// fast path runs, and the designs-suite digest sweep in tests/jit
// cross-checks them against IntValue.cpp's wide path.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_CODEGEN_H
#define LLHD_JIT_CODEGEN_H

#include "sim/Lir.h"

#include <string>
#include <vector>

namespace llhd {

class Type;

namespace jit {

// u64/s64, the LlhdJitApi callback table, AbiVersion (checked after
// dlopen) and the <=64-bit integer helpers every generated unit runs.
#define LLHD_JIT_ENGINE
#include "jit/Prelude.h"

/// One probe site: the generated code calls back with this index, the
/// engine reads the signal referenced by frame slot \p SigSlot.
struct PrbPlan {
  uint32_t Pc;
  int32_t SigSlot;
};

/// One drive site. The delay is required to be a compile-time constant
/// (a ConstSlots entry); the signal reference and driver identity are
/// resolved per instance at bind time.
struct DrvPlan {
  uint32_t Pc;
  int32_t SigSlot;
  int32_t DelaySlot;
  unsigned Width;     ///< Scalar value width, or element width for arrays.
  uint32_t NumElems;  ///< 0: scalar drive; else array element count.
  const Instruction *Origin;
};

/// One intrinsic call site, in a process or in a function it calls:
/// an llhd.assert or llhd.finish (the kinds native code admits).
struct CallPlan {
  uint32_t Pc;
  IntrinsicKind K;
};

/// One wait site. The generated function returns the site's index when
/// suspending there; the engine registers sensitivity/timeout from this
/// plan and re-enters at \p ResumeEntry on the next wake.
struct WaitPlan {
  uint32_t Pc;
  std::vector<int32_t> Observed; ///< Signal slots (static bindings).
  int32_t TimeoutSlot = -1;      ///< Const time slot, -1 when absent.
  int32_t ResumeEntry = 0;       ///< Entry value: wait index + 1.
};

/// The translation plan of one process unit: either the side-effect site
/// tables (the frame is the LIR word file), or the reason translation
/// was declined.
struct UnitPlan {
  const LirUnit *L = nullptr;
  bool Native = false;
  std::string DeoptReason; ///< Set when !Native.

  std::vector<PrbPlan> Prbs;
  std::vector<DrvPlan> Drvs;
  std::vector<CallPlan> Calls;
  std::vector<WaitPlan> Waits;

  /// Function symbol in the generated TU; set by emitUnit.
  std::string Symbol;

  /// A process plan: every defined function it calls, directly or
  /// transitively, planned in function mode, callees before callers
  /// (the emission order). Empty in function plans.
  std::vector<UnitPlan> Fns;
  /// A function plan: where its intrinsic sites (its own Calls, in pc
  /// order) start in the calling process's Calls table, so the
  /// process's context serves them like its own.
  uint32_t CallBase = 0;
  /// A function plan: it calls an intrinsic, itself or through a
  /// callee, so it takes the process's `api` and `ctx`.
  bool NeedsApi = false;
};

/// Decides whether \p L can run natively over its word file and computes
/// the site tables. Never fails hard: an unsupported shape returns a
/// plan with Native == false and a DeoptReason.
UnitPlan planUnit(const LirUnit &L);

/// The translation unit's shared prologue: the bytes of jit/Prelude.h.
std::string emitPrelude();

/// The line every emitUnit() chunk opens with. The host compiler splits
/// a translation unit there into shards that compile at once
/// (jit/HostCompiler.h); everything before the first one is the prelude.
inline constexpr char UnitSentinel[] = "// llhd-jit-unit\n";

/// Emits UnitSentinel and the function for one planned unit (Native
/// must be true), preceded by one static function per entry of P.Fns,
/// and records the symbols (derived from \p Index) in the plans. A
/// function declares the runaway-guard fuel only when it has a backward
/// jump, and ends in no return that cannot be reached.
std::string emitUnit(UnitPlan &P, unsigned Index);

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_CODEGEN_H
