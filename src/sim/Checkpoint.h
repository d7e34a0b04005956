//===- sim/Checkpoint.h - Simulation checkpoint format ----------*- C++ -*-===//
//
// The versioned on-disk checkpoint format shared by all three engines:
// full runtime state — signal values and per-driver contributions, both
// event-wheel lanes, process resumption pcs/frames/memory, reg/del
// previous-sample state, wake generations, trace digest and statistics
// counters — serialized with the bitcode primitives (bitcode/Stream.h).
//
// Engines re-elaborate and re-lower before restoring, so the static
// world (types, names, LIR layout, instance order) is reproduced rather
// than stored; the checkpoint carries only dynamic state plus an FNV-1a
// hash of the printed module as the compatibility key. Interp and CommSim
// run the same module and are therefore mutually restorable; Blaze runs
// its optimised clone, whose hash only matches its own checkpoints
// (with --no-opt the clone prints identically to the original, and
// checkpoints interchange with the other engines).
//
// Driver identities are raw (instance-pointer, instruction-pointer)
// hashes at runtime and would not survive a process restart. Checkpoints
// remap them through DriverIdMap onto stable ids derived from the
// (instance index, LIR pc, trigger index) triple, which the deterministic
// lowering reproduces on restore.
//
// Checkpoints are taken only at physical-instant boundaries (see
// sim/RunControl.h), so there is no mid-delta or mid-process state: every
// process is waiting or halted, and the waveform writer's pending buffer
// is settled.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SIM_CHECKPOINT_H
#define LLHD_SIM_CHECKPOINT_H

#include "bitcode/Stream.h"
#include "sim/Design.h"
#include "sim/Interp.h" // SimStats.
#include "sim/Lir.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace llhd {
namespace ckpt {

constexpr uint32_t Magic = 0x504b'434c; // "LCKP".
constexpr uint32_t Version = 1;

/// FNV-1a over the printed module text: the checkpoint compatibility
/// key. Equal hashes imply equal lowering (lowering is deterministic in
/// the module), hence equal slot/pc/driver layouts.
uint64_t moduleHash(const Module &M);

/// Publishes a checkpoint image: writes \p Bytes to "<Path>.tmp", flushes,
/// and renames it over \p Path, so a crash, signal or full disk mid-write
/// never clobbers the previous good image. Returns false on any failure,
/// with the temporary removed.
bool writeFileAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Bytes);

//===----------------------------------------------------------------------===//
// Leaf serializers
//===----------------------------------------------------------------------===//

void putTime(std::vector<uint8_t> &Out, Time T);
Time getTime(bc::Reader &R);

void putSigRef(std::vector<uint8_t> &Out, const SigRef &S);
SigRef getSigRef(bc::Reader &R);

void putValue(std::vector<uint8_t> &Out, const RtValue &V);
RtValue getValue(bc::Reader &R);

void putFrame(std::vector<uint8_t> &Out, const std::vector<RtValue> &F);
bool getFrame(bc::Reader &R, std::vector<RtValue> &F);

//===----------------------------------------------------------------------===//
// Stable driver identities
//===----------------------------------------------------------------------===//

/// Bidirectional map between the runtime driver ids stored in the signal
/// table / event wheel (pointer-derived, not restart-stable) and stable
/// ids encoding (instance index << 32) | (LIR pc << 8) | trigger index.
/// Built by walking every instance's lowered Drv/Del/Reg ops — the same
/// walk on the restoring side reproduces the same table.
class DriverIdMap {
public:
  /// \p Cache must be the engine's (fully built) lowering cache, so op
  /// pcs match the LirUnits the engine actually executes.
  void build(const Design &D, const LirCache &Cache);

  bool toStable(uint64_t Rt, uint64_t &Out) const {
    auto It = RtToStable.find(Rt);
    if (It == RtToStable.end())
      return false;
    Out = It->second;
    return true;
  }
  bool toRuntime(uint64_t Stable, uint64_t &Out) const {
    auto It = StableToRt.find(Stable);
    if (It == StableToRt.end())
      return false;
    Out = It->second;
    return true;
  }

private:
  std::unordered_map<uint64_t, uint64_t> RtToStable, StableToRt;
};

//===----------------------------------------------------------------------===//
// Unit-state records
//===----------------------------------------------------------------------===//

/// Engine-neutral process state. Both LIR-executing engines and the
/// closure engine fill the same record, which is what makes interp/comm
/// checkpoints interchangeable.
struct ProcRecord {
  uint8_t State = 0; ///< 0 ready, 1 waiting, 2 halted.
  uint8_t Started = 0;
  int64_t Pc = 0;
  uint64_t WakeGen = 0;
  std::vector<SignalId> Sens;
  std::vector<RtValue> Frame;
  std::vector<RtValue> Memory;
  std::vector<RtValue> RegPrev;
  std::vector<uint8_t> RegPrevValid;
  std::vector<RtValue> DelPrev;
};

struct EntRecord {
  std::vector<RtValue> Frame;
  std::vector<RtValue> RegPrev;
  std::vector<uint8_t> RegPrevValid;
  std::vector<RtValue> DelPrev;
};

void putProc(std::vector<uint8_t> &Out, const ProcRecord &P);
bool getProc(bc::Reader &R, ProcRecord &P);
void putEnt(std::vector<uint8_t> &Out, const EntRecord &E);
bool getEnt(bc::Reader &R, EntRecord &E);

//===----------------------------------------------------------------------===//
// Header + kernel sections
//===----------------------------------------------------------------------===//

/// Writes magic/version/hash/engine-name, then the kernel state: Now,
/// statistics counters, trace digest, signal values + remapped driver
/// slots, and both event-wheel lanes. Engines append their proc/ent
/// records after this. \p Signals is the run's signal table (per-run
/// values over the shared layout).
void writeHeaderAndKernel(std::vector<uint8_t> &Out, uint64_t ModuleHash,
                          const std::string &EngineName,
                          const SignalTable &Signals,
                          const Scheduler &Sched, const Trace &Tr, Time Now,
                          const SimStats &Stats, const DriverIdMap &Map);

/// Validates the header against \p ExpectModuleHash and restores the
/// kernel state (the scheduler is rebuilt by replaying both lanes in
/// time order). Returns false and sets \p Err on version/hash mismatch
/// or a corrupt image; \p Sched must be empty (freshly built engine).
bool readHeaderAndKernel(bc::Reader &R, uint64_t ExpectModuleHash,
                         SignalTable &Signals, Scheduler &Sched, Trace &Tr,
                         Time &Now, SimStats &Stats, const DriverIdMap &Map,
                         std::string &Err);

} // namespace ckpt
} // namespace llhd

#endif // LLHD_SIM_CHECKPOINT_H
