//===- sim/Checkpoint.cpp - Simulation checkpoint format -----------------===//

#include "sim/Checkpoint.h"
#include "asm/Printer.h"
#include "bitcode/Stream.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

using namespace llhd;
using namespace llhd::ckpt;

//===----------------------------------------------------------------------===//
// Compatibility key
//===----------------------------------------------------------------------===//

uint64_t ckpt::moduleHash(const Module &M) {
  std::string Text = printModule(M);
  uint64_t H = 1469598103934665603ull;
  for (char C : Text) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

bool ckpt::writeFileAtomic(const std::string &Path,
                           const std::vector<uint8_t> &Bytes) {
  std::string Tmp = Path + ".tmp";
  bool Ok;
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    Ok = !Out.fail();
  }
  if (Ok && std::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  std::remove(Tmp.c_str());
  return false;
}

namespace {

//===----------------------------------------------------------------------===//
// Leaf serializers
//===----------------------------------------------------------------------===//

void putTime(std::vector<uint8_t> &Out, Time T) {
  bc::putVar(Out, T.Fs);
  bc::putVar(Out, T.Delta);
  bc::putVar(Out, T.Eps);
}

Time getTime(bc::Reader &R) {
  Time T;
  T.Fs = R.var();
  T.Delta = static_cast<uint32_t>(R.var());
  T.Eps = static_cast<uint32_t>(R.var());
  return T;
}

void putSigRef(std::vector<uint8_t> &Out, const SigRef &S) {
  bc::putVar(Out, S.Sig);
  bc::putVar(Out, S.Path.size());
  for (uint32_t E : S.Path)
    bc::putVar(Out, E);
  // Offsets carry a -1 sentinel; bias by one so they stay varints.
  bc::putVar(Out, static_cast<uint64_t>(int64_t(S.ElemOff) + 1));
  bc::putVar(Out, S.ElemLen);
  bc::putVar(Out, static_cast<uint64_t>(int64_t(S.BitOff) + 1));
  bc::putVar(Out, S.BitLen);
}

SigRef getSigRef(bc::Reader &R) {
  SigRef S;
  S.Sig = static_cast<SignalId>(R.var());
  uint64_t N = R.var();
  if (N > R.In.size()) { // Corrupt length guard.
    R.Failed = true;
    return S;
  }
  S.Path.resize(N);
  for (uint64_t I = 0; I != N; ++I)
    S.Path[I] = static_cast<uint32_t>(R.var());
  S.ElemOff = static_cast<int32_t>(int64_t(R.var()) - 1);
  S.ElemLen = static_cast<uint32_t>(R.var());
  S.BitOff = static_cast<int32_t>(int64_t(R.var()) - 1);
  S.BitLen = static_cast<uint32_t>(R.var());
  return S;
}

void putValue(std::vector<uint8_t> &Out, const RtValue &V) {
  Out.push_back(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case RtValue::Kind::Invalid:
    break;
  case RtValue::Kind::Int: {
    const IntValue &IV = V.intValue();
    bc::putVar(Out, IV.width());
    for (unsigned I = 0; I != IV.numWords(); ++I)
      bc::putVar(Out, IV.word(I));
    break;
  }
  case RtValue::Kind::Logic: {
    const LogicVec &LV = V.logicValue();
    bc::putVar(Out, LV.width());
    for (unsigned I = 0; I != LV.width(); ++I)
      Out.push_back(static_cast<uint8_t>(logicToChar(LV.bit(I))));
    break;
  }
  case RtValue::Kind::TimeVal:
    putTime(Out, V.timeValue());
    break;
  case RtValue::Kind::Array:
  case RtValue::Kind::Struct: {
    const std::vector<RtValue> &Es = V.elements();
    bc::putVar(Out, Es.size());
    for (const RtValue &E : Es)
      putValue(Out, E);
    break;
  }
  case RtValue::Kind::Pointer:
    bc::putVar(Out, V.pointer());
    break;
  case RtValue::Kind::Signal:
    putSigRef(Out, V.sigRef());
    break;
  }
}

RtValue getValue(bc::Reader &R) {
  if (R.Pos >= R.In.size()) {
    R.Failed = true;
    return RtValue();
  }
  auto K = static_cast<RtValue::Kind>(R.In[R.Pos++]);
  switch (K) {
  case RtValue::Kind::Invalid:
    return RtValue();
  case RtValue::Kind::Int: {
    unsigned W = static_cast<unsigned>(R.var());
    if (W > (1u << 24)) {
      R.Failed = true;
      return RtValue();
    }
    if (W <= 64)
      return RtValue(IntValue(W, R.var()));
    std::vector<uint64_t> Ws((W + 63) / 64);
    for (uint64_t &Word : Ws)
      Word = R.var();
    return RtValue(IntValue(W, Ws));
  }
  case RtValue::Kind::Logic: {
    unsigned W = static_cast<unsigned>(R.var());
    if (R.Pos + W > R.In.size()) {
      R.Failed = true;
      return RtValue();
    }
    LogicVec LV(W);
    for (unsigned I = 0; I != W; ++I)
      LV.setBit(I, logicFromChar(static_cast<char>(R.In[R.Pos++])));
    return RtValue(std::move(LV));
  }
  case RtValue::Kind::TimeVal:
    return RtValue(getTime(R));
  case RtValue::Kind::Array:
  case RtValue::Kind::Struct: {
    uint64_t N = R.var();
    if (N > R.In.size()) {
      R.Failed = true;
      return RtValue();
    }
    std::vector<RtValue> Es;
    Es.reserve(N);
    for (uint64_t I = 0; I != N && !R.Failed; ++I)
      Es.push_back(getValue(R));
    return K == RtValue::Kind::Array ? RtValue::makeArray(std::move(Es))
                                     : RtValue::makeStruct(std::move(Es));
  }
  case RtValue::Kind::Pointer:
    return RtValue::makePointer(static_cast<uint32_t>(R.var()));
  case RtValue::Kind::Signal:
    return RtValue(getSigRef(R));
  }
  R.Failed = true;
  return RtValue();
}

void putFrame(std::vector<uint8_t> &Out, const std::vector<RtValue> &F) {
  bc::putVar(Out, F.size());
  for (const RtValue &V : F)
    putValue(Out, V);
}

bool getFrame(bc::Reader &R, std::vector<RtValue> &F) {
  uint64_t N = R.var();
  if (N > R.In.size()) {
    R.Failed = true;
    return false;
  }
  F.assign(N, RtValue());
  for (uint64_t I = 0; I != N && !R.Failed; ++I)
    F[I] = getValue(R);
  return !R.Failed;
}

//===----------------------------------------------------------------------===//
// Stable driver identities
//===----------------------------------------------------------------------===//

/// Bidirectional map between the runtime driver ids stored in the signal
/// table / event wheel (pointer-derived, not restart-stable) and stable
/// ids encoding (instance index << 32) | (LIR pc << 8) | trigger index.
/// Built by walking every instance's lowered Drv/Del/Reg ops — the same
/// walk on the restoring side reproduces the same table.
struct DriverIdMap {
  std::unordered_map<uint64_t, uint64_t> RtToStable, StableToRt;

  /// \p Cache must be the engine's (fully built) lowering cache, so op
  /// pcs match the LirUnits the engine actually executes.
  DriverIdMap(const Design &D, const LirCache &Cache);
};

DriverIdMap::DriverIdMap(const Design &D, const LirCache &Cache) {
  auto add = [&](uint64_t Rt, uint64_t Stable) {
    // First wins on either side: colliding runtime ids were already one
    // driver slot to the resolver, so keeping them conflated is exact.
    RtToStable.emplace(Rt, Stable);
    StableToRt.emplace(Stable, Rt);
  };
  for (size_t I = 0; I != D.Instances.size(); ++I) {
    const UnitInstance &UI = D.Instances[I];
    const LirUnit &L = *Cache.lookup(UI.U);
    for (size_t Pc = 0; Pc != L.Ops.size(); ++Pc) {
      const LirOp &Op = L.Ops[Pc];
      uint64_t Stable = (uint64_t(I) << 32) |
                        (uint64_t(Pc & 0xFFFFFF) << 8);
      switch (baseOpc(Op.C)) {
      case LirOpc::Drv:
      case LirOpc::Del:
        add(driverId(&UI, Op.Origin), Stable);
        break;
      case LirOpc::Reg:
        for (uint32_t TI = 0; TI != Op.TrigCount; ++TI)
          add(driverId(&UI, Op.Origin) + TI, Stable | TI);
        break;
      default:
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Header + kernel sections
//===----------------------------------------------------------------------===//

/// Marker for a runtime driver id the map could not resolve (never
/// produced by the enumeration above in practice); restore rejects it.
constexpr uint64_t UnmappedDriver = ~0ull;

uint64_t stableOf(const DriverIdMap &Map, uint64_t Rt) {
  auto It = Map.RtToStable.find(Rt);
  return It == Map.RtToStable.end() ? UnmappedDriver : It->second;
}

std::vector<SignalId> canonicalSignals(const SignalTable &Signals) {
  std::vector<SignalId> Out;
  for (SignalId S = 0; S != Signals.size(); ++S)
    if (Signals.canonical(S) == S)
      Out.push_back(S);
  return Out;
}

/// Writes magic/version/hash/engine-name, then the kernel state: Now,
/// statistics counters, trace digest, signal values + remapped driver
/// slots, and both event-wheel lanes.
void writeHeaderAndKernel(std::vector<uint8_t> &Out, uint64_t ModuleHash,
                          const std::string &EngineName, const SimState &St,
                          const DriverIdMap &Map) {
  const SignalTable &Signals = St.Signals;
  const SimStats &Stats = St.Stats;
  bc::putVar(Out, Magic);
  bc::putVar(Out, Version);
  bc::putVar(Out, ModuleHash);
  bc::putStr(Out, EngineName);

  putTime(Out, St.Now);
  bc::putVar(Out, Stats.Steps);
  bc::putVar(Out, Stats.ProcessRuns);
  bc::putVar(Out, Stats.EntityEvals);
  bc::putVar(Out, Stats.AssertFailures);
  bc::putVar(Out, St.Tr.digest());
  bc::putVar(Out, St.Tr.numChanges());

  // Signal values + per-driver contributions, canonical ids only (alias
  // views share their root's storage and are reproduced by elaboration).
  std::vector<SignalId> Canon = canonicalSignals(Signals);
  bc::putVar(Out, Canon.size());
  for (SignalId S : Canon) {
    bc::putVar(Out, S);
    putValue(Out, Signals.storedValue(S));
    const auto &Drs = Signals.driverSlots(S);
    bc::putVar(Out, Drs.size());
    for (const auto &[Id, V] : Drs) {
      bc::putVar(Out, stableOf(Map, Id));
      putValue(Out, V);
    }
  }

  // Both event-wheel lanes, in ascending time order. Restore replays
  // them through the scheduling API, which reproduces intra-slot event
  // order exactly (slots keep scheduling order within one time).
  std::vector<Scheduler::PendingSlot> Slots = St.Sched.pendingSlots(Signals);
  bc::putVar(Out, Slots.size());
  for (const Scheduler::PendingSlot &Slot : Slots) {
    putTime(Out, Slot.T);
    bc::putVar(Out, Slot.Updates.size());
    for (const SigUpdate &U : Slot.Updates) {
      putSigRef(Out, U.Ref);
      putValue(Out, U.Val);
      bc::putVar(Out, stableOf(Map, U.Driver));
    }
    bc::putVar(Out, Slot.Wakes.size());
    for (const ProcWake &W : Slot.Wakes) {
      bc::putVar(Out, W.Proc);
      bc::putVar(Out, W.Gen);
    }
  }
  bc::putVar(Out, St.Sched.totalScheduled());
}

/// Validates the header against \p ExpectModuleHash and restores the
/// kernel state (the scheduler is rebuilt by replaying both lanes in
/// time order). False and \p Err set on version/hash mismatch or a
/// corrupt image.
bool readHeaderAndKernel(bc::Reader &R, uint64_t ExpectModuleHash,
                         SimState &St, const DriverIdMap &Map,
                         std::string &Err) {
  SignalTable &Signals = St.Signals;
  Scheduler &Sched = St.Sched;
  SimStats &Stats = St.Stats;
  auto fail = [&](const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  };

  if (R.var() != Magic)
    return fail("not a checkpoint file (bad magic)");
  uint64_t V = R.var();
  if (V != Version)
    return fail("unsupported checkpoint version " + std::to_string(V));
  uint64_t Hash = R.var();
  std::string FromEngine = R.str();
  if (R.Failed)
    return fail("truncated checkpoint header");
  if (Hash != ExpectModuleHash)
    return fail("checkpoint was taken from a different module (source "
                "hash mismatch; written by engine '" +
                FromEngine + "')");

  St.Now = getTime(R);
  Stats.Steps = R.var();
  Stats.ProcessRuns = R.var();
  Stats.EntityEvals = R.var();
  Stats.AssertFailures = R.var();
  uint64_t Digest = R.var();
  uint64_t NumChanges = R.var();
  if (R.Failed)
    return fail("truncated checkpoint statistics");
  St.Tr.restoreState(Digest, NumChanges);

  std::vector<SignalId> Canon = canonicalSignals(Signals);
  if (R.var() != Canon.size())
    return fail("checkpoint signal count mismatch");
  std::vector<std::pair<uint64_t, RtValue>> Drs;
  for (SignalId S : Canon) {
    if (R.var() != S)
      return fail("checkpoint signal id mismatch");
    Signals.setStoredValue(S, getValue(R));
    uint64_t NDr = R.var();
    if (NDr > R.In.size())
      return fail("corrupt checkpoint driver count");
    Drs.clear();
    for (uint64_t I = 0; I != NDr && !R.Failed; ++I) {
      auto Rt = Map.StableToRt.find(R.var());
      RtValue Val = getValue(R);
      if (Rt == Map.StableToRt.end())
        return fail("checkpoint driver id does not map onto this "
                    "design's lowering");
      Drs.emplace_back(Rt->second, std::move(Val));
    }
    // Runtime ids are pointer-derived, so their order differs between
    // runs; the table finds slots by binary search over the id.
    std::sort(Drs.begin(), Drs.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    Signals.setDriverSlots(S, Drs);
  }
  if (R.Failed)
    return fail("truncated checkpoint signal section");

  uint64_t NSlots = R.var();
  if (NSlots > R.In.size())
    return fail("corrupt checkpoint scheduler section");
  for (uint64_t SI = 0; SI != NSlots && !R.Failed; ++SI) {
    Time T = getTime(R);
    uint64_t NUpd = R.var();
    if (NUpd > R.In.size())
      return fail("corrupt checkpoint scheduler section");
    for (uint64_t I = 0; I != NUpd && !R.Failed; ++I) {
      SigRef Ref = getSigRef(R);
      RtValue Val = getValue(R);
      auto Rt = Map.StableToRt.find(R.var());
      if (Rt == Map.StableToRt.end())
        return fail("checkpoint event driver id does not map onto this "
                    "design's lowering");
      Sched.scheduleUpdate(T, {std::move(Ref), std::move(Val), Rt->second});
    }
    uint64_t NWake = R.var();
    if (NWake > R.In.size())
      return fail("corrupt checkpoint scheduler section");
    for (uint64_t I = 0; I != NWake && !R.Failed; ++I) {
      uint32_t Proc = static_cast<uint32_t>(R.var());
      uint64_t Gen = R.var();
      Sched.scheduleWake(T, {Proc, Gen});
    }
  }
  Sched.setTotalScheduled(R.var());
  if (R.Failed)
    return fail("truncated checkpoint scheduler section");
  return true;
}

//===----------------------------------------------------------------------===//
// Unit-state records
//===----------------------------------------------------------------------===//

/// Writes the reg/del previous-sample state both record kinds end with.
template <typename RecordT>
void putPrevState(std::vector<uint8_t> &Out, const RecordT &Rec) {
  putFrame(Out, Rec.RegPrev);
  bc::putVar(Out, Rec.RegPrevValid.size());
  Out.insert(Out.end(), Rec.RegPrevValid.begin(), Rec.RegPrevValid.end());
  putFrame(Out, Rec.DelPrev);
}

template <typename RecordT> bool getPrevState(bc::Reader &R, RecordT &Rec) {
  getFrame(R, Rec.RegPrev);
  uint64_t NValid = R.var();
  if (NValid > R.In.size() - R.Pos) {
    R.Failed = true;
    return false;
  }
  Rec.RegPrevValid.assign(R.In.begin() + R.Pos,
                          R.In.begin() + R.Pos + NValid);
  R.Pos += NValid;
  getFrame(R, Rec.DelPrev);
  return !R.Failed;
}

void putRecord(std::vector<uint8_t> &Out, const ProcRecord &P) {
  Out.push_back(P.State);
  Out.push_back(P.Started);
  bc::putVar(Out, static_cast<uint64_t>(P.Pc));
  bc::putVar(Out, P.WakeGen);
  bc::putVar(Out, P.Sens.size());
  for (SignalId S : P.Sens)
    bc::putVar(Out, S);
  putFrame(Out, P.Frame);
  putFrame(Out, P.Memory);
  putPrevState(Out, P);
}

bool getRecord(bc::Reader &R, ProcRecord &P) {
  if (R.Pos + 2 > R.In.size()) {
    R.Failed = true;
    return false;
  }
  P.State = R.In[R.Pos++];
  P.Started = R.In[R.Pos++];
  P.Pc = static_cast<int64_t>(R.var());
  P.WakeGen = R.var();
  uint64_t NSens = R.var();
  if (NSens > R.In.size()) {
    R.Failed = true;
    return false;
  }
  P.Sens.resize(NSens);
  for (uint64_t I = 0; I != NSens; ++I)
    P.Sens[I] = static_cast<SignalId>(R.var());
  getFrame(R, P.Frame);
  getFrame(R, P.Memory);
  return getPrevState(R, P);
}

void putRecord(std::vector<uint8_t> &Out, const EntRecord &E) {
  putFrame(Out, E.Frame);
  putPrevState(Out, E);
}

bool getRecord(bc::Reader &R, EntRecord &E) {
  getFrame(R, E.Frame);
  return getPrevState(R, E);
}

/// Writes a counted section of unit records.
template <typename RecordT>
void putSection(std::vector<uint8_t> &Out, const std::vector<RecordT> &Recs) {
  bc::putVar(Out, Recs.size());
  for (const RecordT &Rec : Recs)
    putRecord(Out, Rec);
}

/// Reads a counted section of records of the units \p Units, checking
/// the count and each record's shape against the lowering; \p Section
/// and \p Shape name what failed in \p Err.
template <typename RecordT>
bool getSection(bc::Reader &R, const std::vector<const LirUnit *> &Units,
                std::vector<RecordT> &Recs, const std::string &Section,
                const std::string &Shape, std::string &Err) {
  if (R.var() != Units.size() || R.Failed) {
    Err = "checkpoint " + Section + " count does not match this design";
    return false;
  }
  Recs.assign(Units.size(), RecordT());
  for (size_t I = 0; I != Units.size(); ++I) {
    const LirUnit &L = *Units[I];
    if (!getRecord(R, Recs[I])) {
      Err = "truncated checkpoint " + Section + " section";
      return false;
    }
    if (Recs[I].Frame.size() != L.NumSlots ||
        Recs[I].RegPrev.size() != L.NumRegPrev ||
        Recs[I].DelPrev.size() != L.NumDelPrev) {
      Err = "checkpoint " + Shape + " shape does not match this lowering";
      return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole images
//===----------------------------------------------------------------------===//

void ckpt::writeImage(std::vector<uint8_t> &Out, const std::string &EngineName,
                      const Design &D, const LirCache &Cache,
                      const SimState &St,
                      const std::vector<ProcRecord> &Procs,
                      const std::vector<EntRecord> &Ents) {
  if (!D.ok())
    return; // An engine that failed to build has no state to save.
  DriverIdMap Map(D, Cache);
  writeHeaderAndKernel(Out, moduleHash(*D.M), EngineName, St, Map);
  putSection(Out, Procs);
  putSection(Out, Ents);
}

bool ckpt::readImage(const std::vector<uint8_t> &In, const Design &D,
                     const LirCache &Cache, SimState &St,
                     std::vector<ProcRecord> &Procs,
                     std::vector<EntRecord> &Ents, std::string &Err) {
  Err = D.Error; // Empty unless the engine failed to build.
  if (!D.ok())
    return false;
  bc::Reader R{In};
  DriverIdMap Map(D, Cache);
  if (!readHeaderAndKernel(R, moduleHash(*D.M), St, Map, Err))
    return false;
  // Every engine keeps one state per instance, processes and entities
  // apart, each shaped by its unit's lowering.
  std::vector<const LirUnit *> ProcUnits, EntUnits;
  for (const UnitInstance &UI : D.Instances)
    (UI.U->isProcess() ? ProcUnits : EntUnits)
        .push_back(Cache.lookup(UI.U));
  return getSection(R, ProcUnits, Procs, "process", "frame", Err) &&
         getSection(R, EntUnits, Ents, "entity", "entity", Err);
}
