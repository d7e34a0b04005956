//===- jit/Runtime.h - Native code binding and callbacks --------*- C++ -*-===//
//
// The engine side of the JIT's C ABI. A generated process function
// (jit/Codegen.h) has the signature
//
//   extern "C" long long fn(const LlhdJitApi *api, void *ctx,
//                           unsigned long long *words, long long entry);
//
// runs over the process instance's LIR word file (sim/Lir.h), the same
// frame the interpreter runs it over, and returns the index of the wait
// site it suspended at, -1 on halt, or -2 on fuel exhaustion. `ctx` is
// the ProcContext bound to one process instance: it carries the resolved
// side-effect sites (signal references, drive delays and driver
// identities, canonical wait sensitivities, intrinsic kinds) so the
// generated code itself stays free of engine types and pointers. It
// holds no process state: that is all in the word file.
//
// JitModule orchestrates the whole pipeline for one engine build: plan
// every distinct process unit, emit one translation unit, compile it
// via jit/HostCompiler.h, resolve the symbols, and bind per-instance
// contexts. Any failure leaves the engine interpreting, never broken.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_RUNTIME_H
#define LLHD_JIT_RUNTIME_H

#include "jit/Codegen.h"
#include "jit/Jit.h"
#include "sim/Lir.h"
#include "sim/RtValue.h"
#include "support/Time.h"

#include <map>

namespace llhd {

class LirEngine;
struct Design;
struct UnitInstance;

namespace jit {

/// Signature of a generated process function. The generated side
/// spells the word file `unsigned long long*`; uint64_t is
/// layout-identical on every supported host.
using JitFn = long long (*)(const LlhdJitApi *, void *, uint64_t *,
                            long long);

/// The engine's shared callback table (LlhdJitApi: jit/Prelude.h).
const LlhdJitApi *apiTable();

/// One probe site, resolved per instance.
struct PrbSite {
  SigRef Ref;
  /// The run's stored value when Ref resolves (through `con` merges and
  /// alias records) to a whole signal holding a two-state scalar of at
  /// most 64 bits, or an array of them: probes read it in place. Null
  /// for sub-signals and bit slices, which go through
  /// SignalTable::read() on every access. Valid for the whole run (see
  /// SignalTable's stable-address invariant).
  const RtValue *Direct = nullptr;
};

/// One drive site, resolved per instance.
struct DrvSite {
  SigRef Ref;
  Time Delay;
  uint64_t Driver = 0;
  unsigned Width = 0;
  /// SignalTable::wordCanon() of a scalar drive of a whole signal: when
  /// valid, drives take the scheduler's word lane with the value masked
  /// by Mask. InvalidSignal sends them down the general path.
  SignalId WordCanon = InvalidSignal;
  uint64_t Mask = 0;
  RtValue Scratch; ///< Array drives: reused element buffer (packWords).
};

/// One intrinsic call site.
struct CallSite {
  IntrinsicKind K = IntrinsicKind::Assert;
};

/// One wait site, resolved per instance.
struct WaitSite {
  std::vector<SignalId> Sens; ///< Canonical observed signals.
  bool HasTimeout = false;
  Time Timeout;
  long long ResumeEntry = 0;
  int32_t ResumePc = 0; ///< The LIR pc ResumeEntry resumes at.
};

/// The side-effect sites of one native process instance; its state lives
/// in the engine's frame.
struct ProcContext {
  LirEngine *Eng = nullptr;
  uint32_t ProcIndex = 0;
  JitFn Fn = nullptr;
  std::vector<PrbSite> Prbs;
  std::vector<DrvSite> Drvs;
  std::vector<CallSite> Calls;
  std::vector<WaitSite> Waits;
};

/// One program build's JIT state: the plans, the loaded code, and the
/// statistics. Owned by LirProgram; after compile() it is read-only and
/// shared by every engine running over that program.
class JitModule {
public:
  explicit JitModule(JitOptions O) : Opts(O) {}

  /// Plans every distinct process unit of \p D, emits and compiles the
  /// translation unit, and resolves the symbols. \p Cache must already
  /// hold every instantiated unit's lowering (LirProgram::build). On any
  /// failure the module simply ends up with no native units (and a
  /// warning in the stats); the engines keep interpreting.
  void compile(const Design &D, const LirCache &Cache);

  /// Points every native unit at its symbol in \p Handle, an object
  /// loaded from Source (or from a source defining the same symbols:
  /// tests run one design on objects built in different ways). A missing
  /// symbol leaves no native units and a warning. compile() ends here.
  bool bindObject(void *Handle);

  struct NativeUnit {
    UnitPlan Plan;
    JitFn Fn = nullptr;
  };

  /// The native code for \p L, or null when it deopted (or nothing
  /// compiled).
  const NativeUnit *nativeFor(const LirUnit *L) const {
    auto It = Units.find(L);
    return It == Units.end() || !It->second.Fn ? nullptr : &It->second;
  }

  /// Resolves one process instance's side-effect sites from its
  /// preloaded frame into \p Ctx. Returns false when a binding is not
  /// resolvable (the instance then stays interpreted).
  /// Const: binding reads the compiled plans and writes only \p Ctx, so
  /// concurrent batch engines bind against one shared module.
  bool bindProcess(LirEngine &Eng, uint32_t ProcIndex, const NativeUnit &NU,
                   const UnitInstance &Inst,
                   const std::vector<RtValue> &Frame, ProcContext &Ctx) const;

  JitStats St;
  std::string Source; ///< The emitted translation unit (for dump/CI).

private:
  JitOptions Opts;
  std::map<const LirUnit *, NativeUnit> Units;
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_RUNTIME_H
