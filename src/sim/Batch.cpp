//===- sim/Batch.cpp - Batched fleet simulation ---------------------------===//

#include "sim/Batch.h"
#include "blaze/Blaze.h"
#include "sim/Checkpoint.h"
#include "sim/Program.h"
#include "sim/Wave.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <thread>

using namespace llhd;

std::string llhd::instancePath(const std::string &Path, unsigned Index) {
  return Path + "." + std::to_string(Index);
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Runs \p Sim: restores \p O.Resume, hooks checkpoint writes to
/// \p CheckpointPath, and records the outcome in \p Out.
void simulate(InterpSim &Sim, const BatchOptions &O,
              const std::string &CheckpointPath, BatchInstance &Out) {
  if (O.Resume) {
    std::string Err;
    if (!Sim.restore(*O.Resume, Err)) {
      Out.Error = "cannot resume: " + Err;
      Out.Stats.Stop = StopReason::CheckpointError;
      return;
    }
  }
  if (!CheckpointPath.empty())
    Sim.options().RC.Checkpoint = [&Sim, &CheckpointPath, &Out](Time) {
      std::vector<uint8_t> Image;
      Sim.checkpoint(Image);
      if (ckpt::writeFileAtomic(CheckpointPath, Image))
        return true;
      Out.Error = "cannot write checkpoint '" + CheckpointPath + "'";
      return false;
    };
  Out.Stats = Sim.run();
  Out.Digest = Sim.trace().digest();
  Out.Changes = Sim.trace().numChanges();
  Out.Signals = Sim.design().Signals.size();
  Out.Instances = Sim.design().Instances.size();
}

} // namespace

BatchProgram llhd::buildProgram(Module &M, const std::string &Top,
                                const BatchOptions &O, std::string &Err) {
  BatchProgram P;
  if (O.Engine == "interp") {
    Design D = elaborate(M, Top);
    if (!D.ok())
      Err = D.Error;
    else
      P.Lir = LirProgram::build(std::move(D), jit::JitOptions());
  } else if (O.Engine == "blaze") {
    BlazeSim::BlazeOptions BO;
    BO.Optimize = O.Optimize;
    BO.Jit = O.Jit;
    P.Lir = BlazeSim::buildProgram(M, Top, BO, Err);
    P.Blaze = true;
  } else {
    Err = "unknown engine '" + O.Engine + "'";
  }
  return P;
}

BatchInstance llhd::runInstance(const BatchProgram &P, const BatchOptions &O,
                                uint64_t Seed, std::ostream *Vcd,
                                const std::string &CheckpointPath) {
  BatchInstance Out;
  SimOptions SO = O.Base;
  SO.Seed = Seed;
  // Declared before the engine, so the engine (whose event loop feeds the
  // writer) dies first.
  WaveWriter Wave;
  if (Vcd) {
    Wave.streamTo(*Vcd);
    SO.Wave = &Wave;
  }
  std::unique_ptr<InterpSim> Sim =
      P.Blaze ? std::make_unique<BlazeSim>(P.Lir, std::move(SO))
              : std::make_unique<InterpSim>(P.Lir, std::move(SO));
  simulate(*Sim, O, CheckpointPath, Out);
  Out.Jit = Sim->jitStats(); // After a restore's per-instance deopts.
  // The event loop has finished the dump and flushed the stream.
  if (Vcd && !*Vcd && Out.Error.empty())
    Out.Error = "error writing the VCD";
  if (Vcd) {
    Out.Vcd = true;
    Out.VcdVars = Wave.numVars();
    Out.VcdChanges = Wave.numDumpedChanges();
    Out.VcdBytes = Wave.numBytes();
  }
  return Out;
}

BatchResult llhd::runBatch(Module &M, const std::string &Top,
                           const BatchOptions &O) {
  BatchResult R;
  unsigned N = O.N ? O.N : 1;
  R.Instances.resize(N);

  // Phase 1 — build the shared program exactly once. Everything the
  // instances read concurrently is produced (and frozen) here.
  auto T0 = std::chrono::steady_clock::now();
  BatchProgram P = buildProgram(M, Top, O, R.Error);
  if (!P)
    return R;
  R.BuildSeconds = secondsSince(T0);

  // Phase 2 — the worker pool claims instances off one atomic counter.
  // Jobs == 1 (or N == 1) runs inline: identical results, no threads.
  auto T1 = std::chrono::steady_clock::now();
  std::atomic<unsigned> Next{0};
  auto Worker = [&] {
    for (;;) {
      unsigned I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      BatchInstance &Out = R.Instances[I];
      std::string Vcd = O.VcdPath.empty() ? "" : instancePath(O.VcdPath, I);
      std::ofstream VcdOut;
      if (!Vcd.empty())
        VcdOut.open(Vcd, std::ios::binary | std::ios::trunc);
      if (!Vcd.empty() && !VcdOut)
        Out.Error = "cannot open '" + Vcd + "' for writing";
      else
        Out = runInstance(
            P, O, O.Base.Seed + I, Vcd.empty() ? nullptr : &VcdOut,
            O.CheckpointPath.empty() ? "" : instancePath(O.CheckpointPath, I));
      Out.Index = I;
    }
  };

  unsigned Jobs = O.Jobs ? O.Jobs : std::thread::hardware_concurrency();
  if (Jobs < 1)
    Jobs = 1;
  if (Jobs > N)
    Jobs = N;
  if (Jobs == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Jobs);
    for (unsigned J = 0; J != Jobs; ++J)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }
  R.RunSeconds = secondsSince(T1);

  R.Ok = true;
  for (const BatchInstance &BI : R.Instances)
    if (!BI.Error.empty())
      R.Ok = false;
  return R;
}
