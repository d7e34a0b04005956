//===- sim/Checkpoint.h - Simulation checkpoint format ----------*- C++ -*-===//
//
// The versioned on-disk checkpoint format shared by both engines:
// full runtime state — signal values and per-driver contributions, both
// event-wheel lanes, process resumption pcs/frames/memory, reg/del
// previous-sample state, wake generations, trace digest and statistics
// counters — serialized with the bitcode primitives (bitcode/Stream.h).
//
// Engines re-elaborate and re-lower before restoring, so the static
// world (types, names, LIR layout, instance order) is reproduced rather
// than stored; the checkpoint carries only dynamic state plus an FNV-1a
// hash of the printed module as the compatibility key. One codec,
// writeImage()/readImage(), writes and reads the whole image for every
// engine; an engine only converts its unit state to and from the
// engine-neutral ProcRecord/EntRecord. Interp runs the caller's module
// as given. Blaze (an InterpSim that records "blaze" as the engine name)
// runs its optimised clone, whose hash only matches its own checkpoints.
// With --no-opt the in-memory clone (ir/Clone.h) prints exactly like the
// original, so Blaze checkpoints interchange with Interp's for every
// design, natively compiled units included (Blaze moves their state to
// and from the interpreter's frames around the codec).
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

#include "sim/Design.h"
#include "sim/Lir.h"
#include "sim/SimState.h"

#include <cstdint>
#include <string>
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
// Unit-state records
//===----------------------------------------------------------------------===//

/// Engine-neutral process state. Both engines convert to and from the
/// same record, which is what makes interp/blaze checkpoints
/// interchangeable.
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

//===----------------------------------------------------------------------===//
// Whole images
//===----------------------------------------------------------------------===//

/// Serializes one run of \p D (executing the lowering in \p Cache) into
/// \p Out: the header (magic, version, module hash, \p EngineName), the
/// kernel state of \p St (clock, statistics, trace digest, signal values
/// with remapped driver slots, both event-wheel lanes), then the counted
/// process and entity sections, one record per instance in instance
/// order. Writes nothing for an invalid design.
void writeImage(std::vector<uint8_t> &Out, const std::string &EngineName,
                const Design &D, const LirCache &Cache, const SimState &St,
                const std::vector<ProcRecord> &Procs,
                const std::vector<EntRecord> &Ents);

/// Restores an image written by writeImage() into \p St, a freshly built
/// run of the same design (its scheduler must be empty), and returns the
/// unit records for the engine to adopt. Validates the header against the
/// module hash and every count and record shape against \p Cache's
/// lowering; false and \p Err set on a mismatch, a corrupt image or an
/// invalid design.
bool readImage(const std::vector<uint8_t> &In, const Design &D,
               const LirCache &Cache, SimState &St,
               std::vector<ProcRecord> &Procs, std::vector<EntRecord> &Ents,
               std::string &Err);

} // namespace ckpt
} // namespace llhd

#endif // LLHD_SIM_CHECKPOINT_H
