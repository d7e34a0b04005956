//===- jit/Runtime.cpp - Native code binding and callbacks ----------------===//

#include "jit/Runtime.h"
#include "jit/HostCompiler.h"
#include "sim/Design.h"
#include "sim/LirEngine.h"
#include "sim/RtOps.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <dlfcn.h>
#include <set>

using namespace llhd;
using namespace llhd::jit;

//===----------------------------------------------------------------------===//
// C ABI callbacks
//===----------------------------------------------------------------------===//
//
// These mirror the interpreter's Prb/Drv/Call cases in LirEngine.cpp
// exactly; the only difference is that values cross the boundary as
// already-masked words of the word file instead of RtValues.

namespace {

u64 apiPrb(void *CtxP, unsigned Site) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const PrbSite &S = C.Prbs[Site];
  // Whole signals read their pre-resolved storage in place; the rest go
  // through read(), which resolves `con` aliases (including element-
  // aligned sub-signal aliases) exactly like the interpreter's Prb.
  if (S.Direct)
    return S.Direct->intValue().zextToU64();
  return C.Eng->Signals.read(S.Ref).intValue().zextToU64();
}

void apiPrbArr(void *CtxP, unsigned Site, u64 *Dst, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const PrbSite &S = C.Prbs[Site];
  // u64 and uint64_t are both 64-bit words, spelt differently.
  auto *W = reinterpret_cast<uint64_t *>(Dst);
  if (S.Direct)
    unpackWords(*S.Direct, W, N);
  else
    unpackWords(C.Eng->Signals.read(S.Ref), W, N);
}

/// True when a probe can read \p V in place: a two-state scalar of at
/// most 64 bits, or an array of them (the word file's shapes).
bool directReadable(const RtValue &V) {
  auto Lane = [](const RtValue &E) {
    return E.isInt() && E.intValue().width() <= 64;
  };
  if (V.kind() != RtValue::Kind::Array)
    return Lane(V);
  const std::vector<RtValue> &Es = V.elements();
  return std::all_of(Es.begin(), Es.end(), Lane);
}

void apiDrv(void *CtxP, unsigned Site, u64 Val) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const DrvSite &S = C.Drvs[Site];
  LirEngine &E = *C.Eng;
  Time T = driveTarget(E.Now, S.Delay);
  if (S.WordCanon != InvalidSignal)
    E.Sched.scheduleWord(T, S.WordCanon, Val & S.Mask, S.Driver);
  else
    E.Sched.scheduleUpdate(T, {S.Ref, RtValue(IntValue(S.Width, Val)),
                               S.Driver});
  E.Sched.countScheduled(1);
}

void apiDrvArr(void *CtxP, unsigned Site, const u64 *Val, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  DrvSite &S = C.Drvs[Site];
  LirEngine &E = *C.Eng;
  packWords(S.Scratch, reinterpret_cast<const uint64_t *>(Val), N, S.Width);
  E.Sched.scheduleUpdate(driveTarget(E.Now, S.Delay), S.Ref, S.Scratch,
                         S.Driver);
  E.Sched.countScheduled(1);
}

void apiCall(void *CtxP, unsigned Site, const u64 *Args, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const CallSite &S = C.Calls[Site];
  switch (S.K) {
  case IntrinsicKind::Assert:
    intrinsicAssert(C.Eng->St, N != 0 && Args[0] != 0);
    break;
  case IntrinsicKind::Finish:
    intrinsicFinish(C.Eng->St);
    break;
  default:
    break; // Planning admits no other kind.
  }
}

} // namespace

const LlhdJitApi *jit::apiTable() {
  static const LlhdJitApi Api = {apiPrb, apiPrbArr, apiDrv, apiDrvArr,
                                 apiCall};
  return &Api;
}

//===----------------------------------------------------------------------===//
// JitModule
//===----------------------------------------------------------------------===//

void JitModule::compile(const Design &D, const LirCache &Cache) {
  St.Enabled = Opts.M != JitOptions::Mode::Off;
  if (!St.Enabled)
    return;
  auto T0 = std::chrono::steady_clock::now();
  auto Elapsed = [&T0] {
    auto T1 = std::chrono::steady_clock::now();
    double S = std::chrono::duration<double>(T1 - T0).count();
    T0 = T1;
    return S;
  };

  // Distinct process units in first-instantiation order: the emission
  // order (and thus the symbol numbering) is deterministic.
  std::vector<const LirUnit *> ProcUnits;
  std::set<const LirUnit *> Seen;
  for (const UnitInstance &UI : D.Instances) {
    if (!UI.U->isProcess())
      continue;
    const LirUnit *L = Cache.lookup(UI.U);
    if (Seen.insert(L).second)
      ProcUnits.push_back(L);
  }

  std::string Src = emitPrelude();
  std::vector<const LirUnit *> Native;
  for (const LirUnit *L : ProcUnits) {
    if (!Opts.ForceDeopt.empty() &&
        (Opts.ForceDeopt == "*" ||
         L->U->name().find(Opts.ForceDeopt) != std::string::npos)) {
      ++St.DeoptUnits;
      St.Deopts.push_back({L->U->name(), "forced deopt (testing knob)"});
      continue;
    }
    UnitPlan P = planUnit(*L);
    if (!P.Native) {
      ++St.DeoptUnits;
      St.Deopts.push_back({L->U->name(), P.DeoptReason});
      continue;
    }
    Src += emitUnit(P, Native.size());
    Native.push_back(L);
    Units[L].Plan = std::move(P);
  }
  Source = Src;

  if (Opts.M == JitOptions::Mode::Dump && !Opts.DumpPath.empty()) {
    if (FILE *Fp = fopen(Opts.DumpPath.c_str(), "wb")) {
      fwrite(Source.data(), 1, Source.size(), Fp);
      fclose(Fp);
    } else {
      fprintf(stderr, "llhd-jit: cannot write generated source to '%s'\n",
              Opts.DumpPath.c_str());
    }
  }

  St.CodegenSeconds = Elapsed();
  if (Native.empty()) {
    // Nothing admitted; not a failure, the interpreter covers it all.
    Units.clear();
    return;
  }

  CompileResult R = HostCompiler::compile(Source);
  St.HostCompileSeconds = Elapsed();
  St.CompilerFound = R.CompilerFound;
  St.Object = R.From;
  St.Shards = R.Shards;
  if (!R.ok()) {
    St.Warning = "blaze jit disabled, falling back to the interpreter: " +
                 R.Error;
    if (!R.Diagnostics.empty())
      St.Warning += "\n" + R.Diagnostics;
    fprintf(stderr, "llhd-jit: warning: %s\n", St.Warning.c_str());
    Units.clear();
    return;
  }

  bindObject(R.Handle);
}

bool JitModule::bindObject(void *Handle) {
  for (auto &[L, NU] : Units) {
    void *Sym = dlsym(Handle, NU.Plan.Symbol.c_str());
    if (!Sym) {
      St.Warning = "blaze jit disabled: symbol '" + NU.Plan.Symbol +
                   "' missing from the generated object";
      fprintf(stderr, "llhd-jit: warning: %s\n", St.Warning.c_str());
      Units.clear();
      St.Compiled = false;
      St.NativeUnits = 0;
      return false;
    }
    NU.Fn = reinterpret_cast<JitFn>(Sym);
  }
  St.Compiled = true;
  St.NativeUnits = Units.size();
  return true;
}

bool JitModule::bindProcess(LirEngine &Eng, uint32_t ProcIndex,
                            const NativeUnit &NU, const UnitInstance &Inst,
                            const std::vector<RtValue> &Frame,
                            ProcContext &Ctx) const {
  const UnitPlan &P = NU.Plan;
  Ctx.Eng = &Eng;
  Ctx.ProcIndex = ProcIndex;
  Ctx.Fn = NU.Fn;

  for (const PrbPlan &Pp : P.Prbs) {
    const RtValue &S = Frame[Pp.SigSlot];
    if (!S.isSignal())
      return false;
    PrbSite Site;
    Site.Ref = S.sigRef();
    SigRef R = Eng.Signals.resolve(Site.Ref);
    if (R.wholeSignal()) {
      const RtValue &V = Eng.Signals.storedValue(R.Sig);
      if (directReadable(V))
        Site.Direct = &V;
    }
    Ctx.Prbs.push_back(std::move(Site));
  }

  for (const DrvPlan &Dp : P.Drvs) {
    const RtValue &S = Frame[Dp.SigSlot];
    const RtValue &T = Frame[Dp.DelaySlot];
    if (!S.isSignal() || !T.isTime())
      return false;
    DrvSite Site;
    Site.Ref = S.sigRef();
    Site.Delay = T.timeValue();
    Site.Driver = driverId(&Inst, Dp.Origin);
    Site.Width = Dp.Width;
    if (!Dp.NumElems && Site.Ref.wholeSignal()) {
      Site.WordCanon = Eng.Signals.wordCanon(Site.Ref.Sig);
      assert((Site.WordCanon == InvalidSignal ||
              Eng.Signals.storedValue(Site.WordCanon).intValue().width() ==
                  Dp.Width) &&
             "drive value width differs from the signal's");
      Site.Mask = IntValue::maskOf(Dp.Width);
    }
    Ctx.Drvs.push_back(std::move(Site));
  }

  for (const CallPlan &Cp : P.Calls)
    Ctx.Calls.push_back({Cp.K});

  for (const WaitPlan &Wp : P.Waits) {
    WaitSite Site;
    for (int32_t Slot : Wp.Observed) {
      const RtValue &S = Frame[Slot];
      if (!S.isSignal())
        return false;
      Site.Sens.push_back(Eng.Signals.canonical(S.sigId()));
    }
    if (Wp.TimeoutSlot >= 0) {
      const RtValue &T = Frame[Wp.TimeoutSlot];
      if (!T.isTime())
        return false;
      Site.HasTimeout = true;
      Site.Timeout = T.timeValue();
    }
    Site.ResumeEntry = Wp.ResumeEntry;
    Site.ResumePc = P.L->Ops[Wp.Pc].Jmp0;
    Ctx.Waits.push_back(std::move(Site));
  }
  return true;
}
